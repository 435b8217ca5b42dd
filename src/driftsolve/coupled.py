"""Coupled scalar-vector driver, hypothesis checks, and Sobolev bound.

The coupled system pairs the scalar equation (whose coefficient ``a`` is not
given directly but realized as ``rho1 + |Psi + rho2 * cdev(W)|^2``) with the
vector equation ``div(rho3 * cdev(W)) = X(u)``.  The driver alternates the
two solves and succeeds when consecutive log-iterates agree; the hypothesis
checker reports every smallness quantity the existence theory asks about,
grading each one PASS/FAIL where decidable and ADVISORY where the theory's
constants are not explicit.  The critical Sobolev constant those advisory
lines need is taken in closed form, so grading a system costs one
coercivity eigenvalue and no search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConditionViolated,
    ConfigError,
    DivergenceDetected,
    NonConvergence,
    NotCoercive,
    SolverError,
)
from .grid import (
    ScalarField,
    SymTensorField,
    VectorField,
    c2_surrogate,
    conformal_killing,
    gradient,
    sup_norm,
)
from .momentum import MomentumProblem, _apply_operator, momentum_rhs, solve_lame
from .scalar import (
    LichCoefficients,
    _residual_values,
    find_supersolution,
    monotone_iterate,
    pick_epsilon0,
)
from .stability import coercivity_eigenvalue, linearize, smallest_eigenvalue


@dataclass
class RhsInputs:
    """Fields from which the vector source is rebuilt at each outer iterate."""

    v_tilde: VectorField
    n_tilde: ScalarField
    pi: ScalarField
    psi: ScalarField


@dataclass
class SystemCoefficients:
    """Everything defining one coupled system on a fixed grid.

    No positivity is enforced at construction; run :func:`check_hypotheses`
    to grade the system, and let the solvers raise on genuinely unusable
    coefficients.  ``rhs_mode`` is ``"zero"`` (decoupled vector source) or
    ``"abstract"`` (source rebuilt from ``rhs`` at the current scalar
    iterate); ``rhs`` is given exactly in the abstract mode.
    """

    b: ScalarField
    c: ScalarField
    d: ScalarField
    f: ScalarField
    h: ScalarField
    rho1: ScalarField
    rho2: ScalarField
    rho3: ScalarField
    Y: VectorField
    Psi: SymTensorField
    rhs_mode: str = "zero"
    rhs: RhsInputs | None = None

    def __post_init__(self):
        if self.rhs_mode not in ("zero", "abstract"):
            raise ConfigError(f"unknown rhs_mode {self.rhs_mode!r}")
        if self.rhs_mode == "abstract" and self.rhs is None:
            raise ConfigError("rhs_mode 'abstract' needs rhs inputs")
        if self.rhs_mode == "zero" and self.rhs is not None:
            raise ConfigError("rhs_mode 'zero' builds no vector source; "
                              "rhs inputs would be graded but never solved")


@dataclass
class HypothesisReport:
    theta: float
    t_norm: float
    omega: float
    coercivity_lambda: float | None
    l1_lhs: float
    l1_rhs: float
    sh_estimate: float
    smallness_lhs: float
    c_r_measured: float
    verdicts: dict


@dataclass
class CoupledReport:
    outer_iterations: int
    phi_steps: list
    condition_margins: list
    final_scalar_residual: float
    final_vector_residual: float
    lambda0: float
    kernel_defect: float
    kernel_unresolved: float


def effective_a(sys, w):
    """Realized coefficient ``rho1 + |Psi + rho2 * cdev(w)|^2`` (Frobenius)."""
    mix = sys.Psi.values + sys.rho2.values * conformal_killing(w).values
    return ScalarField(w.grid, sys.rho1.values + np.sum(mix**2, axis=(0, 1)))


def _vector_rhs(sys, u):
    if sys.rhs_mode == "zero":
        return None
    r = sys.rhs
    return momentum_rhs(u, r.v_tilde, r.n_tilde, r.pi, r.psi)


def system_residual(u, w, sys):
    """Pointwise residuals of both equations at a candidate pair.

    The vector equation is only solvable up to kernel content, so its
    residual compares against the componentwise-mean-free part of the
    source; constant shifts of ``w`` therefore leave it unchanged.  The
    scalar residual takes the realized ``a`` as it is, of either sign.

    Returns
    -------
    (ScalarField, VectorField)
    """
    g = u.grid
    a = effective_a(sys, w).values
    rs = ScalarField(g, _residual_values(g, u.values, a, sys))
    div_flux = _apply_operator(sys.rho3, w.values)
    source = _vector_rhs(sys, u)
    if source is not None:
        sv = source.values
        sv = sv - sv.mean(axis=tuple(range(1, 1 + g.dim)), keepdims=True)
        div_flux = div_flux - sv
    return rs, VectorField(g, div_flux)


# ---------------------------------------------------------------- hypotheses


def _holder_surrogate(field):
    """Sup norm plus gradient sup norm, standing in for a Holder norm."""
    vals = np.atleast_2d(field.values.reshape((-1,) + field.grid.shape))
    out = 0.0
    for comp in vals:
        s = ScalarField(field.grid, np.ascontiguousarray(comp))
        out = max(out, sup_norm(s) + sup_norm(gradient(s)))
    return out


def _probe_fields(grid):
    unit = np.eye(grid.dim, dtype=int)
    return [
        ScalarField(grid, np.ones(grid.shape)),
        ScalarField(grid, 1.0 + 0.2 * np.sin(grid.phase(unit[0]))),
        ScalarField(grid, 1.5 + 0.3 * np.cos(grid.phase(unit[1]))),
    ]


def check_hypotheses(sys, a_tilde, c_n=1.0):
    """Grade the coupled system against the existence hypotheses.

    Hard conditions (positivity of ``f`` and ``rho1``, coercivity of the
    linear part, a positive gap ``a_tilde - rho1``) get PASS/FAIL verdicts.
    The integral-smallness and box-smallness conditions involve constants
    the theory does not make explicit, so they are reported ADVISORY with
    all measured numbers attached; ``c_n`` stands for the dimensional
    constant of the integral bound ``l1_rhs``.  Never raises.
    """
    g = sys.f.grid
    theta = float(min(sys.rho1.values.min(), sys.f.values.min()))
    t_norm = max(
        c2_surrogate(sys.f),
        _holder_surrogate(sys.rho1),
        _holder_surrogate(sys.c),
        _holder_surrogate(sys.d),
        _holder_surrogate(sys.h),
    )
    omega = float((a_tilde.values - sys.rho1.values).min())
    l1_lhs = float(np.mean(np.abs(sys.rho1.values)) * g.volume)

    try:
        coercivity_lambda = coercivity_eigenvalue(sys.h)
    except SolverError:
        coercivity_lambda = None
    coercive = coercivity_lambda is not None and coercivity_lambda > 0

    sh_estimate = 0.0
    if coercive:
        sh_estimate = estimate_sobolev_constant(sys.h, coercivity_lambda)

    f_max = float(np.abs(sys.f.values).max())
    if sh_estimate > 0 and f_max > 0:
        l1_rhs = (1.0 / sh_estimate ** (g.dim - 1)) * f_max ** (1 - g.dim) * c_n
    else:
        l1_rhs = 0.0

    c_r = 0.0
    if sys.rhs is not None:
        r = sys.rhs
        for u in _probe_fields(g):
            bound = 1.0 + c2_surrogate(u) ** 2 / float(u.values.min()) ** 2
            c_r = max(c_r, sup_norm(momentum_rhs(
                u, r.v_tilde, r.n_tilde, r.pi, r.psi)) / bound)

    smallness_lhs = (
        _holder_surrogate(sys.b) + _holder_surrogate(sys.Y)
        + _holder_surrogate(sys.Psi) + _holder_surrogate(sys.rho2) + c_r)

    verdicts = {
        "f_positive": "PASS" if sys.f.values.min() > 0 else "FAIL",
        "rho1_positive": "PASS" if sys.rho1.values.min() > 0 else "FAIL",
        "coercive": "PASS" if coercive else "FAIL",
        "omega_positive": "PASS" if omega > 0 else "FAIL",
        "l1_smallness": "ADVISORY",
        "smallness_box": "ADVISORY",
    }
    return HypothesisReport(
        theta=theta, t_norm=t_norm, omega=omega,
        coercivity_lambda=coercivity_lambda, l1_lhs=l1_lhs, l1_rhs=l1_rhs,
        sh_estimate=sh_estimate, smallness_lhs=smallness_lhs,
        c_r_measured=c_r, verdicts=verdicts,
    )


# ----------------------------------------------------------- Sobolev constant


def estimate_sobolev_constant(h, coercivity_lambda=None):
    """Lower bound of the critical embedding constant for ``lap + h``.

    The constant is the supremum over the continuum torus of
    ``integral(|v|^q) / (integral(|grad v|^2 + h v^2))^(q/2)``.  The
    estimate is the larger of two closed-form lower bounds of it, neither of
    which depends on the grid:

    * ``K(n)^q``, the sharp Euclidean Sobolev constant (Aubin, J. Diff.
      Geom. 11, 1976; Talenti, Ann. Mat. Pura Appl. 110, 1976).  Bubbles
      concentrating at a point make ``integral(h v^2)`` negligible against
      their gradient energy for every n >= 3, so their quotients tend to it.
    * ``V^(1 - q/2) mean(h)^(-q/2)``, the quotient of the constant function
      (``mean(h)`` is at least the coercivity eigenvalue, so positive).

    ``coercivity_lambda`` is the smallest eigenvalue of ``lap + h`` when the
    caller already has it; otherwise it is computed here.

    Raises NotCoercive when the quadratic form is not positive.
    """
    g = h.grid
    lam = coercivity_eigenvalue(h) if coercivity_lambda is None else coercivity_lambda
    if lam <= 0:
        raise NotCoercive(f"smallest eigenvalue of the linear part is {lam:.6f}")
    n, q = g.dim, g.q
    sphere = 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)
    k_sq = 4.0 / (n * (n - 2) * sphere ** (2.0 / n))
    constant = g.volume ** (1.0 - q / 2.0) * float(np.mean(h.values)) ** (-q / 2.0)
    return max(k_sq ** (q / 2.0), constant)


# -------------------------------------------------------------------- driver


def fixed_point_solve(sys, a_tilde, max_outer=50, tol_outer=1e-9):
    """Alternate the vector and scalar solves until the log-iterates settle.

    Each outer pass rebuilds the vector source at the current scalar
    iterate, solves the vector equation, checks that the realized
    coefficient stays strictly below ``a_tilde`` (the bound under which the
    precomputed upper barrier remains valid), and re-solves the scalar
    equation.  Starts from the constant lower barrier of the ``a_tilde``
    model.

    Returns
    -------
    (ScalarField, VectorField, CoupledReport)

    Raises
    ------
    ConditionViolated
        If ``rho1 + |Psi + rho2 cdev(W)|^2`` reaches ``a_tilde`` anywhere.
    NonConvergence
        If the outer loop does not settle within ``max_outer`` passes.
    DivergenceDetected
        If the iterates' second-derivative surrogate grows tenfold over
        five passes.
    """
    g = sys.f.grid
    psi = find_supersolution(sys.h, sys.f, a_tilde)
    model = LichCoefficients(a=a_tilde, b=sys.b, c=sys.c, d=sys.d,
                             f=sys.f, h=sys.h, Y=sys.Y)
    eps0 = pick_epsilon0(psi, model)
    u = ScalarField(g, np.full(g.shape, eps0))
    w = VectorField(g, np.zeros((g.dim,) + g.shape))
    kernel = None
    coeffs = model
    phi_steps = []
    margins = []
    surrogates = []
    outer = 0
    for outer in range(1, max_outer + 1):
        source = _vector_rhs(sys, u)
        if source is not None and sup_norm(source) > 0:
            w, kernel = solve_lame(MomentumProblem(rho3=sys.rho3, x=source))
        a_k = effective_a(sys, w)
        margin = float((a_k.values - a_tilde.values).max())
        margins.append(margin)
        if margin >= 0:
            node = np.unravel_index(
                np.argmax(a_k.values - a_tilde.values), g.shape)
            raise ConditionViolated(f"grid node {tuple(int(i) for i in node)}",
                                    margin=margin)
        coeffs = LichCoefficients(a=a_k, b=sys.b, c=sys.c, d=sys.d,
                                  f=sys.f, h=sys.h, Y=sys.Y)
        u_new, _ = monotone_iterate(coeffs, psi)
        step = float(np.abs(np.log(u_new.values) - np.log(u.values)).max())
        phi_steps.append(step)
        surrogates.append(c2_surrogate(u_new))
        if len(surrogates) >= 6 and surrogates[-1] > 10.0 * surrogates[-6]:
            raise DivergenceDetected(
                f"second-derivative surrogate grew from {surrogates[-6]:.3e} "
                f"to {surrogates[-1]:.3e} over five passes")
        u = u_new
        if step < tol_outer:
            break
    else:
        raise NonConvergence("coupled outer loop did not settle",
                             iterations=max_outer, residual=phi_steps[-1])

    rs, rv = system_residual(u, w, sys)
    lam0, _ = smallest_eigenvalue(linearize(u, coeffs))
    report = CoupledReport(
        outer_iterations=outer,
        phi_steps=phi_steps,
        condition_margins=margins,
        final_scalar_residual=sup_norm(rs),
        final_vector_residual=sup_norm(rv),
        lambda0=lam0,
        kernel_defect=0.0 if kernel is None else float(np.abs(kernel.defect).max()),
        kernel_unresolved=0.0 if kernel is None else kernel.unresolved,
    )
    return u, w, report
