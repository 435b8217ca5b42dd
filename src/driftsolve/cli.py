"""Command-line driver: one solve per invocation, JSON report out.

Usage::

    driftsolve <mode> --config <path> --out <dir>

Modes: solve-scalar, solve-momentum, solve-coupled, check-hypotheses,
eigen, verify, map-physical.  Exit codes: 0 success, 1 malformed
configuration or usage, 2 hypothesis failure (report still written),
3 solver failure (report still written).

Configurations are strict JSON validated against the shipped schema;
fields are given as truncated Fourier series (constant part plus integer-
wavevector modes), which keeps configs exact and diffable.  Reports are
deterministic: rerunning a config reproduces every number except the
wall-clock entry.
"""

import argparse
import dataclasses
import json
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__
from .coupled import (
    SystemCoefficients,
    check_hypotheses,
    fixed_point_solve,
)
from .errors import ConfigError, SolverError
from .fieldio import field_from_spec, write_field
from .grid import (
    GridSpec,
    ScalarField,
    SymTensorField,
    VectorField,
    _scalar_op_values,
    l2_norm,
    sup_norm,
)
from .momentum import MomentumProblem, solve_lame
from .physical import (
    PhysicalParameters,
    constraint_residuals,
    map_parameters,
    reconstruct_data,
    solve_drift_momentum,
)
from .scalar import (_BARRIER_TOL, LichCoefficients, find_supersolution, linearize,
                     monotone_iterate, scalar_residual)
from .stability import smallest_eigenvalue
from .verify import check_model_profile

MODES = ("solve-scalar", "solve-momentum", "solve-coupled",
         "check-hypotheses", "eigen", "verify", "map-physical")


# ----------------------------------------------------------- config handling


def _load_schema():
    text = resources.files("driftsolve").joinpath("config_schema.json").read_text()
    return json.loads(text)


def _grid_from(cfg):
    if "grid" not in cfg:
        raise ConfigError("configuration lacks a 'grid' section")
    sec = cfg["grid"]
    kwargs = {}
    if "length" in sec:
        kwargs["length"] = float(sec["length"])
    return GridSpec(dim=int(sec["dim"]), n_axis=int(sec["n_axis"]), **kwargs)


def _field(grid, spec, name, kind="scalar"):
    try:
        return field_from_spec(grid, spec, kind)
    except ConfigError as err:
        raise ConfigError(f"field '{name}': {err}") from err


def _scalar_or_const(grid, sec, name, default):
    if name in sec:
        return _field(grid, sec[name], name)
    return ScalarField(grid, np.full(grid.shape, float(default)))


def _vector_or_zero(grid, sec, name):
    if name in sec:
        return _field(grid, sec[name], name, "vector")
    return VectorField(grid, np.zeros((grid.dim,) + grid.shape))


def _shared_coeffs(grid, sec):
    """The coefficients ``b c d f h Y`` of the scalar equation, which the
    scalar and the system sections spell alike, as keyword arguments."""
    return dict(
        b=_scalar_or_const(grid, sec, "b", 0.0),
        c=_scalar_or_const(grid, sec, "c", 0.0),
        d=_scalar_or_const(grid, sec, "d", 0.0),
        f=_field(grid, sec["f"], "f"),
        h=_field(grid, sec["h"], "h"),
        Y=_vector_or_zero(grid, sec, "Y"),
    )


def _coeffs_from(grid, sec):
    return LichCoefficients(a=_field(grid, sec["a"], "a"), **_shared_coeffs(grid, sec))


def _system_from(grid, sec):
    sys_coeffs = SystemCoefficients(
        **_shared_coeffs(grid, sec),
        rho1=_field(grid, sec["rho1"], "rho1"),
        rho2=_scalar_or_const(grid, sec, "rho2", 0.0),
        rho3=_scalar_or_const(grid, sec, "rho3", 1.0),
        Psi=SymTensorField(grid, np.zeros((grid.dim, grid.dim) + grid.shape)),
        rhs_mode="zero",
    )
    a_tilde = _field(grid, sec["a_tilde"], "a_tilde")
    return sys_coeffs, a_tilde


def _section(cfg, name, mode):
    if name not in cfg:
        raise ConfigError(f"mode '{mode}' needs a '{name}' section")
    return cfg[name]


# ------------------------------------------------------------------ reports


def _write_report(out_dir, report):
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "report.json", "w") as fh:
        # numpy arrays, integers and bools serialize through tolist();
        # np.float64 is a float already
        json.dump(report, fh, indent=2, sort_keys=True, default=lambda obj: obj.tolist())
        fh.write("\n")


# -------------------------------------------------------------------- modes


def _run_solve_scalar(cfg, grid, report, out_dir, dump):
    sec = _section(cfg, "scalar", "solve-scalar")
    tol = float(cfg.get("tolerances", {}).get("outer", 1e-9))
    coeffs = _coeffs_from(grid, sec)
    info = {}
    psi = None
    if "psi" in sec:
        candidate = _field(grid, sec["psi"], "psi")
        defect = float(scalar_residual(candidate, coeffs).values.min())
        if defect >= _BARRIER_TOL:
            psi = candidate
            info["psi_source"] = "config"
        else:
            info["psi_source"] = "search"
            info["psi_config_defect"] = defect
    else:
        info["psi_source"] = "search"
    if psi is None:
        psi = find_supersolution(coeffs.h, coeffs.f, coeffs.a)
    u, trace = monotone_iterate(coeffs, psi, tol_outer=tol)
    info.update({
        "u_min": float(u.values.min()),
        "u_max": float(u.values.max()),
        "final_residual": float(trace.final_residual),
        "iterations": int(trace.iterate_count),
        "newton_steps": int(trace.newton_steps),
        "polished": bool(trace.polished),
        "eps0": float(trace.eps0),
        "K": float(trace.K),
        "psi_max": float(psi.values.max()),
    })
    report["scalar"] = info
    if dump:
        write_field(out_dir / "u.dcf", u)
    return 0


def _run_solve_momentum(cfg, grid, report, out_dir, dump):
    sec = _section(cfg, "momentum", "solve-momentum")
    tol = float(cfg.get("tolerances", {}).get("momentum", 1e-10))
    prob = MomentumProblem(rho3=_field(grid, sec["rho3"], "rho3"),
                           x=_field(grid, sec["x"], "x", "vector"))
    w, kernel = solve_lame(prob, tol=tol)
    report["momentum"] = {
        "w_sup": float(sup_norm(w)),
        "kernel": dataclasses.asdict(kernel),
    }
    if dump:
        write_field(out_dir / "w.dcf", w)
    return 0


def _grade_system(cfg, report, sys_coeffs, a_tilde):
    """Grade the system into the report; False if a hypothesis fails."""
    c_n = float(cfg.get("hypotheses", {}).get("c_n", 1.0))
    rep = check_hypotheses(sys_coeffs, a_tilde, c_n=c_n)
    report["hypotheses"] = dataclasses.asdict(rep)
    if any(v == "FAIL" for v in rep.verdicts.values()):
        report["status"] = "hypothesis-fail"
        return False
    return True


def _run_check_hypotheses(cfg, grid, report, out_dir, dump):
    sec = _section(cfg, "system", "check-hypotheses")
    return 0 if _grade_system(cfg, report, *_system_from(grid, sec)) else 2


def _run_solve_coupled(cfg, grid, report, out_dir, dump):
    sec = _section(cfg, "system", "solve-coupled")
    tol = float(cfg.get("tolerances", {}).get("outer", 1e-9))
    sys_coeffs, a_tilde = _system_from(grid, sec)
    if not _grade_system(cfg, report, sys_coeffs, a_tilde):
        return 2
    u, w, crep = fixed_point_solve(sys_coeffs, a_tilde, tol_outer=tol)
    report["coupled"] = dataclasses.asdict(crep)
    if dump:
        write_field(out_dir / "u.dcf", u)
        write_field(out_dir / "w.dcf", w)
    return 0


def _run_eigen(cfg, grid, report, out_dir, dump):
    sec = _section(cfg, "scalar", "eigen")
    u = _field(grid, _section(cfg, "eigen", "eigen")["u"], "u")
    coeffs = _coeffs_from(grid, sec)
    op = linearize(u, coeffs)
    lam, phi = smallest_eigenvalue(op)
    action = _scalar_op_values(grid, op.zeroth.values, op.first.values, phi.values)
    resid = l2_norm(ScalarField(grid, action - lam * phi.values))
    report["eigen"] = {
        "lambda0": float(lam),
        "certificate_residual": float(resid / l2_norm(phi)),
        "sign_definite": bool(phi.values.min() * phi.values.max() > 0),
    }
    if dump:
        write_field(out_dir / "phi.dcf", phi)
    return 0


def _run_map_physical(cfg, grid, report, out_dir, dump):
    sec = _section(cfg, "physical", "map-physical")
    phys = PhysicalParameters(
        v_tilde=_vector_or_zero(grid, sec, "v_tilde"),
        n_tilde=_scalar_or_const(grid, sec, "n_tilde", 1.0),
        u_tensor=SymTensorField(grid, np.zeros((grid.dim, grid.dim) + grid.shape)),
        pi=_scalar_or_const(grid, sec, "pi", 0.0),
        psi=_scalar_or_const(grid, sec, "psi", 0.0),
        tau_star=float(sec["tau_star"]),
        v_coeffs=tuple(float(c) for c in sec["v_coeffs"]),
    )
    u = _field(grid, sec["u"], "u")
    _, mrep = map_parameters(phys)
    w, kernel, used = solve_drift_momentum(u, phys)
    data = reconstruct_data(u, w, used)
    ham, cod = constraint_residuals(data, used)
    report["physical"] = {
        "kappa": float(mrep.kappa),
        "contraction_sup": float(mrep.contraction_sup),
        "contraction_alt": float(mrep.contraction_alt),
        "flags": dict(mrep.flags),
        "records": [{"id": r.id, "detail": r.detail} for r in mrep.records],
        "hamiltonian_sup": float(sup_norm(ham)),
        "codazzi_sup": float(sup_norm(cod)),
        "tau_min": float(data.tau.values.min()),
        "tau_max": float(data.tau.values.max()),
        "kernel": dataclasses.asdict(kernel),
    }
    if dump:
        write_field(out_dir / "u.dcf", u)
        write_field(out_dir / "w.dcf", w)
    return 0


def _run_verify(cfg, grid, report, out_dir, dump):
    sec = _section(cfg, "verify", "verify")
    residual = check_model_profile(
        f0=float(sec["f0"]), dim=int(sec["dim"]), r_max=float(sec["r_max"]),
        n_points=int(sec.get("n_points", 4096)))
    report["verify"] = {"residual_sup": float(residual)}
    return 0


_RUNNERS = {
    "solve-scalar": _run_solve_scalar,
    "solve-momentum": _run_solve_momentum,
    "solve-coupled": _run_solve_coupled,
    "check-hypotheses": _run_check_hypotheses,
    "eigen": _run_eigen,
    "map-physical": _run_map_physical,
    "verify": _run_verify,
}

_GRIDLESS = {"verify"}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="driftsolve",
        description="Constraint-system solvers on flat periodic tori.")
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        return 1

    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"driftsolve: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        jsonschema.validate(cfg, _load_schema())
    except jsonschema.ValidationError as exc:
        loc = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        print(f"driftsolve: invalid config at {loc}: {exc.message}",
              file=sys.stderr)
        return 1

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = {
        "mode": args.mode,
        "status": "ok",
        "version": __version__,
        "config": cfg,
    }
    dump = bool(cfg.get("output", {}).get("dump_fields", False))
    started = time.perf_counter()
    try:
        grid = None if args.mode in _GRIDLESS else _grid_from(cfg)
        code = _RUNNERS[args.mode](cfg, grid, report, out_dir, dump)
    except ConfigError as exc:
        print(f"driftsolve: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        report["status"] = "solver-error"
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        report["wall_time_s"] = time.perf_counter() - started
        _write_report(out_dir, report)
        print(f"driftsolve: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    report["wall_time_s"] = time.perf_counter() - started
    _write_report(out_dir, report)
    return code


if __name__ == "__main__":
    sys.exit(main())
