"""Physical parameter map, initial-data reconstruction, constraint residuals.

The inputs are the free data of a conformally formulated constraint problem
on the flat torus: a drift vector field, a densitized lapse, a trace-free
seed tensor, scalar-field matter (momentum density and profile with a
polynomial potential), and a constant mean-curvature offset.  They map onto
the abstract coefficient system solved by :mod:`coupled`, and a solved pair
``(u, W)`` maps back to physical initial data whose Hamiltonian and
momentum ("Codazzi") residuals can be measured directly.

Where the source material admits more than one reading of a coefficient,
the map keeps one and records the alternative with measured numbers; see
``MapReport.records``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .coupled import RhsInputs, SystemCoefficients, effective_a
from .grid import (
    ScalarField,
    SymTensorField,
    VectorField,
    conformal_killing,
    divergence,
    gradient,
    laplacian,
    sup_norm,
    tensor_divergence,
)
from .momentum import MomentumProblem, momentum_rhs, q_correction, solve_lame
from .scalar import _monomial, _terms
from .stability import coercivity_eigenvalue


@dataclass
class PhysicalParameters:
    """Free data of the physical problem.

    ``v_coeffs`` are ascending polynomial coefficients of the matter
    potential evaluated at the field profile; ``tau_star`` is the constant
    part of the mean curvature.
    """

    v_tilde: VectorField
    n_tilde: ScalarField
    u_tensor: SymTensorField
    pi: ScalarField
    psi: ScalarField
    tau_star: float
    v_coeffs: tuple


@dataclass
class MapRecord:
    id: str
    detail: str


@dataclass
class MapReport:
    kappa: float
    rho1_corollary: ScalarField
    contraction_sup: float
    contraction_alt: float
    h_physical: ScalarField
    flags: dict
    records: list


@dataclass
class ReconstructedData:
    u: ScalarField
    metric_factor: ScalarField
    tau: ScalarField
    k_hat: SymTensorField
    pi_hat: ScalarField
    psi_hat: ScalarField


def _kappa(dim):
    return (dim - 2.0) / (4.0 * (dim - 1.0))


def _potential(coeffs, psi_vals):
    out = np.zeros_like(psi_vals)
    for c in reversed(coeffs):
        out = out * psi_vals + c
    return out


def _trace_free(vals, dim):
    out = vals.copy()
    tr = np.trace(vals, axis1=0, axis2=1) / dim
    for i in range(dim):
        out[i, i] -= tr
    return out


def _coercive_flag(h):
    """PASS/FAIL for coercivity of the linear part, cheaply when sign-definite."""
    lo, hi = float(h.values.min()), float(h.values.max())
    if hi <= 0:
        return "FAIL"  # test function 1 gives a nonpositive quadratic form
    if lo >= 0:
        return "PASS"  # h >= 0 and somewhere > 0
    return "PASS" if coercivity_eigenvalue(h) > 0 else "FAIL"


def map_parameters(phys, h_override=None):
    """Build the abstract coefficient system from physical free data.

    Parameters
    ----------
    phys : PhysicalParameters
    h_override : ScalarField, optional
        Replace the (typically non-coercive) physically induced zeroth-order
        coefficient; the physical one is still reported.

    Returns
    -------
    (SystemCoefficients, MapReport)
    """
    g = phys.n_tilde.grid
    n = g.dim
    kap = _kappa(n)
    ratio = (n - 1.0) / n

    gpsi = gradient(phys.psi).values
    h_phys = ScalarField(g, -kap * np.sum(gpsi**2, axis=0))
    h = h_override if h_override is not None else h_phys

    pot = _potential(phys.v_coeffs, phys.psi.values)
    f = ScalarField(g, kap * (2.0 * pot - ratio * phys.tau_star**2))

    nt = phys.n_tilde.values
    dvv = divergence(phys.v_tilde).values
    rho1 = ScalarField(g, kap * (phys.pi.values**2 - ratio * nt**2 * dvv**2))
    rho1_cor = ScalarField(g, kap * (phys.pi.values - ratio * nt**2 * dvv))

    u_tf = _trace_free(phys.u_tensor.values, n)
    psi_big = SymTensorField(g, np.sqrt(kap) * u_tf)
    rho2 = ScalarField(g, np.sqrt(kap) * nt / 2.0)
    rho3 = ScalarField(g, nt / 2.0)
    b = ScalarField(g, (n - 2.0) / (2.0 * n) * phys.tau_star * nt * dvv)
    c = ScalarField(g, np.full(g.shape, np.sqrt((n - 2.0) / n)))
    d = ScalarField(g, np.full(g.shape, float(phys.tau_star)))
    y_big = VectorField(g, np.sqrt(n / (n - 2.0)) * nt * phys.v_tilde.values)

    sys = SystemCoefficients(
        b=b, c=c, d=d, f=f, h=h, rho1=rho1, rho2=rho2, rho3=rho3,
        Y=y_big, Psi=psi_big, rhs_mode="abstract",
        rhs=RhsInputs(v_tilde=phys.v_tilde, n_tilde=phys.n_tilde,
                      pi=phys.pi, psi=phys.psi),
    )

    grad_nt = gradient(phys.n_tilde).values
    contraction_sup = float(np.sqrt(np.sum((grad_nt / 2.0) ** 2, axis=0)).max())
    contraction_alt = float(np.sqrt(np.sum((grad_nt / nt) ** 2, axis=0)).max())

    records = [
        MapRecord(
            id="rho3 reading",
            detail=(
                "vector-equation weight taken as half the lapse density "
                f"(gradient sup {contraction_sup:.6e}); the alternative "
                "log-lapse reading would gauge the contraction by "
                f"{contraction_alt:.6e} instead -- both are reported"),
        ),
        MapRecord(
            id="rho1 linear-vs-squared pi",
            detail=(
                "energy-density coefficient uses the squared momentum "
                "density; the linear variant differs by sup "
                f"{sup_norm(ScalarField(g, rho1.values - rho1_cor.values)):.6e} "
                "and is reported, not used"),
        ),
        MapRecord(
            id="drift gradient weight",
            detail=(
                "abstract gradient slot carries the constant kinetic "
                "weight; the direct constraint expression weights it by "
                "lapse density times drift divergence (sup "
                f"{np.abs(nt * dvv).max():.6e})"),
        ),
    ]
    flags = {
        "coercive": _coercive_flag(h),
        "h_overridden": "YES" if h_override is not None else "NO",
    }
    rep = MapReport(
        kappa=kap, rho1_corollary=rho1_cor, contraction_sup=contraction_sup,
        contraction_alt=contraction_alt, h_physical=h_phys, flags=flags,
        records=records,
    )
    return sys, rep


# --------------------------------------------------------- termwise residual


def direct_constraint_terms(u, w, phys):
    """Scalar-constraint terms evaluated straight from the physical fields.

    Returns a dict keyed by slot name; the sum over slots is the physical
    route's equation residual at ``(u, w)``.
    """
    g = u.grid
    n, q = g.dim, g.q
    kap = _kappa(n)
    ratio = (n - 1.0) / n
    uv = u.values
    nt = phys.n_tilde.values
    dvv = divergence(phys.v_tilde).values
    s_v = np.sum(gradient(u).values * phys.v_tilde.values, axis=0)
    gpsi = gradient(phys.psi).values
    pot = _potential(phys.v_coeffs, phys.psi.values)
    u_tf = _trace_free(phys.u_tensor.values, n)
    mixed = u_tf + (nt / 2.0) * conformal_killing(w).values

    return {
        "laplacian": laplacian(u).values,
        "zeroth_h": -kap * np.sum(gpsi**2, axis=0) * uv,
        "potential_f": -kap * (2.0 * pot - ratio * phys.tau_star**2)
        * uv ** (q - 1.0),
        "inverse_a": -(kap * (phys.pi.values**2 - ratio * nt**2 * dvv**2)
                       + kap * np.sum(mixed**2, axis=(0, 1)))
        * uv ** (-q - 1.0),
        "linear_b": (n - 2.0) / (2.0 * n) * phys.tau_star * nt * dvv / uv,
        "gradient_square": (n / (n - 2.0)) * nt**2 * s_v**2 * uv ** (-q - 3.0),
        "tau_gradient": phys.tau_star * nt * s_v * uv**-2.0,
        "drift_gradient": nt**2 * dvv * s_v * uv ** (-q - 2.0),
    }


def mapped_constraint_terms(u, w, sys):
    """The same slots evaluated from the mapped abstract coefficients."""
    s = np.sum(gradient(u).values * sys.Y.values, axis=0)
    terms = _terms(u.grid.q, effective_a(sys, w).values, sys)
    return {"laplacian": laplacian(u).values,
            **{slot: _monomial(coef, u.values, p, s, m) for slot, coef, p, m in terms}}


# ------------------------------------------------------------ reconstruction


def reconstruct_data(u, w, phys):
    """Assemble physical initial data from a solved pair.

    The mean curvature splits into the constant part and the drift
    divergence term; the extrinsic tensor combines the trace-free seed, the
    weighted deformation of ``w``, and the mean-curvature trace part.
    """
    g = u.grid
    n, q = g.dim, g.q
    uv = u.values
    nt = phys.n_tilde.values
    uq = uv**q
    drift_div = divergence(VectorField(g, uq * phys.v_tilde.values)).values
    tau = phys.tau_star + nt * drift_div / uv ** (2.0 * q)
    gfac = uv ** (q - 2.0)

    u_tf = _trace_free(phys.u_tensor.values, n)
    k_vals = uv**-2.0 * (u_tf + (nt / 2.0) * conformal_killing(w).values)
    for i in range(n):
        k_vals[i, i] += tau / n * gfac

    return ReconstructedData(
        u=u,
        metric_factor=ScalarField(g, gfac),
        tau=ScalarField(g, tau),
        k_hat=SymTensorField(g, k_vals),
        pi_hat=ScalarField(g, uv ** (-q) * phys.pi.values),
        psi_hat=phys.psi,
    )


def constraint_residuals(data, phys):
    """Hamiltonian and momentum residuals of reconstructed data.

    Scalar curvature, norms, and divergences are taken in the conformally
    flat metric ``metric_factor * delta``; both residuals vanish (to
    truncation) exactly when the underlying pair solves the coupled system.

    Returns
    -------
    (ScalarField, VectorField)
    """
    g = data.u.grid
    n, q = g.dim, g.q
    uv = data.u.values
    gfac = data.metric_factor.values
    k_vals = data.k_hat.values

    scal = (4.0 * (n - 1.0) / (n - 2.0)) * uv ** (1.0 - q) \
        * laplacian(data.u).values
    k_sq = gfac**-2.0 * np.sum(k_vals**2, axis=(0, 1))
    gpsi = gradient(data.psi_hat).values
    grad_sq = np.sum(gpsi**2, axis=0) / gfac
    pot = _potential(phys.v_coeffs, data.psi_hat.values)
    ham = (scal + data.tau.values**2 - k_sq - data.pi_hat.values**2
           - grad_sq - 2.0 * pot)

    omega = ((q - 2.0) / 2.0) * np.log(uv)
    g_om = gradient(ScalarField(g, omega)).values
    tr_delta = np.trace(k_vals, axis1=0, axis2=1)
    tr_k = ScalarField(g, tr_delta / gfac)
    div_conf = (tensor_divergence(data.k_hat).values
                + (n - 2.0) * np.einsum("ij...,j...->i...", k_vals, g_om)
                - tr_delta * g_om) / gfac
    cod = (gradient(tr_k).values - div_conf
           + data.pi_hat.values * gpsi)
    return ScalarField(g, ham), VectorField(g, cod)


def solve_drift_momentum(u, phys):
    """Solve the vector equation of the reconstruction pipeline.

    Shifts the drift by the constant kernel field of ``q_correction``,
    builds the full-weight vector source once, and solves with the
    half-lapse-density weight.  The mean defect that the shift leaves in
    the source is ``KernelReport.defect``.

    Returns
    -------
    (VectorField, KernelReport, PhysicalParameters)
        The vector solution, the solve report, and the parameters actually
        used (drift replaced by its corrected version).
    """
    g = u.grid
    correction = q_correction(u, phys.v_tilde, phys.n_tilde)
    used = dataclasses.replace(
        phys, v_tilde=VectorField(g, phys.v_tilde.values + correction.values))
    source = momentum_rhs(u, used.v_tilde, used.n_tilde, used.pi, used.psi,
                          half_drift=False)
    rho3 = ScalarField(g, used.n_tilde.values / 2.0)
    w, kernel = solve_lame(MomentumProblem(rho3=rho3, x=source))
    return w, kernel, used
