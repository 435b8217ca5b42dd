"""Command-line driver: config handling, reports, dumps, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import driftsolve
from driftsolve.cli import main


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


def load_report(out_dir):
    with open(out_dir / "report.json") as fh:
        return json.load(fh)


def scalar_config(n_axis=16, a=0.5, psi=2.0, **extra):
    cfg = {
        "grid": {"dim": 3, "n_axis": n_axis},
        "scalar": {
            "a": {"constant": a},
            "f": {"constant": 0.5},
            "h": {"constant": 1.0},
        },
        "output": {"dump_fields": True},
    }
    if psi is not None:
        cfg["scalar"]["psi"] = {"constant": psi}
    cfg.update(extra)
    return cfg


def system_config(rho1=0.3, a_tilde=0.5, f=0.5):
    return {
        "grid": {"dim": 3, "n_axis": 16},
        "system": {
            "f": {"constant": f},
            "h": {"constant": 1.0},
            "rho1": {"constant": rho1},
            "a_tilde": {"constant": a_tilde},
        },
    }


def test_solve_scalar_smoke(tmp_path):
    cfg = write_config(tmp_path, scalar_config())
    out = tmp_path / "out"
    assert main(["solve-scalar", "--config", str(cfg), "--out", str(out)]) == 0
    rep = load_report(out)
    assert rep["mode"] == "solve-scalar"
    assert rep["status"] == "ok"
    assert abs(rep["scalar"]["u_max"] - 1.0) <= 1e-6
    assert abs(rep["scalar"]["u_min"] - 1.0) <= 1e-6
    assert rep["scalar"]["final_residual"] <= 1e-8
    assert rep["scalar"]["iterations"] >= 1
    assert isinstance(rep["scalar"]["newton_steps"], int)
    assert isinstance(rep["scalar"]["polished"], bool)
    assert (out / "u.dcf").exists()
    from driftsolve.fieldio import read_field
    from driftsolve.grid import ScalarField

    u = read_field(out / "u.dcf")
    assert isinstance(u, ScalarField)
    assert u.values.shape == (16, 16, 16)


def test_reports_are_deterministic(tmp_path):
    cfg = write_config(tmp_path, scalar_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["solve-scalar", "--config", str(cfg), "--out", str(out)]) == 0
    r1, r2 = load_report(out1), load_report(out2)
    r1.pop("wall_time_s"), r2.pop("wall_time_s")
    assert r1 == r2
    assert (out1 / "u.dcf").read_bytes() == (out2 / "u.dcf").read_bytes()


def test_report_has_no_seed(tmp_path):
    cfg = write_config(tmp_path, {
        "verify": {"f0": 3.0, "dim": 3, "r_max": 10.0, "n_points": 512},
    })
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    assert "seed" not in load_report(out)
    # nothing is seeded, so the option is gone rather than ignored
    assert main(["verify", "--config", str(cfg), "--out", str(out),
                 "--seed", "7"]) == 1


def test_out_directory_is_created(tmp_path):
    cfg = write_config(tmp_path, scalar_config())
    out = tmp_path / "nested" / "deeper"
    assert main(["solve-scalar", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "report.json").exists()


def test_rejects_unparseable_config(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["solve-scalar", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 1


def test_rejects_schema_violation(tmp_path):
    cfg = scalar_config()
    cfg["grid"]["n_axis"] = 12  # not a supported grid size
    path = write_config(tmp_path, cfg)
    assert main(["solve-scalar", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 1


def test_rejects_unresolvable_fourier_mode(tmp_path):
    cfg = scalar_config()
    cfg["scalar"]["h"] = {
        "constant": 1.0,
        "fourier": [{"wavevector": [8, 0, 0], "cos_amp": 0.1, "sin_amp": 0.0}],
    }
    path = write_config(tmp_path, cfg)
    assert main(["solve-scalar", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 1


def test_rejects_empty_field_spec(tmp_path):
    cfg = scalar_config()
    cfg["scalar"]["b"] = {}
    path = write_config(tmp_path, cfg)
    assert main(["solve-scalar", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 1


def test_rejects_unknown_mode(tmp_path):
    cfg = write_config(tmp_path, scalar_config())
    assert main(["frobnicate", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 1


def test_hypothesis_failure_exits_2_with_report(tmp_path):
    cfg = write_config(tmp_path, system_config(f=-0.5))
    out = tmp_path / "out"
    assert main(["check-hypotheses", "--config", str(cfg), "--out", str(out)]) == 2
    rep = load_report(out)
    assert rep["status"] == "hypothesis-fail"
    assert rep["hypotheses"]["verdicts"]["f_positive"] == "FAIL"


def test_hypotheses_pass_exits_0(tmp_path):
    cfg = write_config(tmp_path, system_config())
    out = tmp_path / "out"
    assert main(["check-hypotheses", "--config", str(cfg), "--out", str(out)]) == 0
    rep = load_report(out)
    assert rep["hypotheses"]["verdicts"]["omega_positive"] == "PASS"
    assert rep["hypotheses"]["theta"] == pytest.approx(0.3)


def test_c_n_scales_l1_rhs_in_both_grading_modes(tmp_path):
    l1_rhs = {}
    for c_n in (1.0, 3.0):
        cfg = system_config()
        cfg["hypotheses"] = {"c_n": c_n}
        path = write_config(tmp_path, cfg, name=f"c{c_n}.json")
        for mode in ("check-hypotheses", "solve-coupled"):
            out = tmp_path / f"{mode}-{c_n}"
            assert main([mode, "--config", str(path), "--out", str(out)]) == 0
            l1_rhs[mode, c_n] = load_report(out)["hypotheses"]["l1_rhs"]
    assert l1_rhs["check-hypotheses", 1.0] > 0
    for mode in ("check-hypotheses", "solve-coupled"):
        assert l1_rhs[mode, 3.0] == pytest.approx(3.0 * l1_rhs[mode, 1.0], rel=1e-15)
        assert l1_rhs[mode, 1.0] == l1_rhs["check-hypotheses", 1.0]


def test_solver_failure_exits_3_with_report(tmp_path):
    cfg = write_config(tmp_path, scalar_config(a=10.0, psi=None))
    out = tmp_path / "out"
    assert main(["solve-scalar", "--config", str(cfg), "--out", str(out)]) == 3
    rep = load_report(out)
    assert rep["status"] == "solver-error"
    assert rep["error"]["type"] == "NoSupersolutionFound"
    assert rep["error"]["message"]


def test_solve_momentum_mode(tmp_path):
    cfg = write_config(tmp_path, {
        "grid": {"dim": 3, "n_axis": 16},
        "momentum": {
            "rho3": {"constant": 1.0},
            "x": {"components": [
                {"fourier": [{"wavevector": [1, 0, 0],
                              "cos_amp": 0.0, "sin_amp": -1.0}]},
                {"constant": 0.0},
                {"constant": 0.0},
            ]},
        },
        "output": {"dump_fields": True},
    })
    out = tmp_path / "out"
    assert main(["solve-momentum", "--config", str(cfg), "--out", str(out)]) == 0
    rep = load_report(out)
    assert rep["momentum"]["kernel"]["residual"] <= 1e-9
    assert max(abs(d) for d in rep["momentum"]["kernel"]["defect"]) <= 1e-12
    assert rep["momentum"]["w_sup"] == pytest.approx(0.75, abs=1e-6)
    ratios = rep["momentum"]["kernel"]["ratios"]
    assert len(ratios) == rep["momentum"]["kernel"]["iterations"] + 1
    assert ratios[0] == pytest.approx(1.0, abs=1e-12)  # sup|X| = 1 is the scale
    assert (out / "w.dcf").exists()


def test_eigen_mode(tmp_path):
    cfg = scalar_config()
    cfg["eigen"] = {"u": {"constant": 1.0}}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["eigen", "--config", str(path), "--out", str(out)]) == 0
    rep = load_report(out)
    assert rep["eigen"]["lambda0"] == pytest.approx(2.0, abs=1e-6)
    assert rep["eigen"]["certificate_residual"] <= 1e-8
    assert rep["eigen"]["sign_definite"] is True


def test_solve_coupled_mode(tmp_path):
    cfg = write_config(tmp_path, system_config())
    out = tmp_path / "out"
    assert main(["solve-coupled", "--config", str(cfg), "--out", str(out)]) == 0
    rep = load_report(out)
    assert rep["coupled"]["outer_iterations"] >= 1
    assert rep["coupled"]["final_scalar_residual"] <= 1e-8
    assert rep["coupled"]["lambda0"] > 0


def test_map_physical_mode(tmp_path):
    tau_star = 0.7
    cfg = write_config(tmp_path, {
        "grid": {"dim": 3, "n_axis": 16},
        "physical": {
            "tau_star": tau_star,
            "v_coeffs": [tau_star**2 / 3.0],
            "u": {"constant": 1.0},
        },
    })
    out = tmp_path / "out"
    assert main(["map-physical", "--config", str(cfg), "--out", str(out)]) == 0
    rep = load_report(out)
    assert rep["physical"]["kappa"] == pytest.approx(0.125)
    assert rep["physical"]["hamiltonian_sup"] <= 1e-12
    assert rep["physical"]["codazzi_sup"] <= 1e-12
    assert rep["physical"]["kernel"]["ratios"] == [0.0]  # the vacuum has no source
    assert "flags" in rep["physical"]
    assert {r["id"] for r in rep["physical"]["records"]} >= {
        "rho3 reading", "rho1 linear-vs-squared pi"}


def test_map_physical_under_resolved_exits_3(tmp_path):
    # criterion 11's drift data at n_axis=16
    sine = {"fourier": [{"wavevector": [1, 0, 0], "sin_amp": 1.0}]}
    cfg = write_config(tmp_path, {
        "grid": {"dim": 3, "n_axis": 16},
        "physical": {
            "tau_star": 0.3,
            "v_coeffs": [1.0],
            "u": {"constant": 1.0,
                  "fourier": [{"wavevector": [1, 0, 0], "sin_amp": 0.2}]},
            "n_tilde": {"constant": 1.0,
                        "fourier": [{"wavevector": [0, 0, 1], "sin_amp": 0.2}]},
            "v_tilde": {"components": [sine, {"constant": 0.0}, {"constant": 0.0}]},
        },
    })
    out = tmp_path / "out"
    assert main(["map-physical", "--config", str(cfg), "--out", str(out)]) == 3
    rep = load_report(out)
    assert rep["status"] == "solver-error"
    assert rep["error"]["type"] == "UnderResolved"


def test_fields_follow_grid_length(tmp_path):
    from driftsolve.fieldio import field_from_spec, read_field

    spec = {"constant": 1.0,
            "fourier": [{"wavevector": [1, 0, 0], "sin_amp": 0.1}]}
    cfg = write_config(tmp_path, {
        "grid": {"dim": 3, "n_axis": 16, "length": 1.0},
        "physical": {"tau_star": 0.7, "v_coeffs": [0.7**2 / 3.0], "u": spec},
        "output": {"dump_fields": True},
    })
    out = tmp_path / "out"
    assert main(["map-physical", "--config", str(cfg), "--out", str(out)]) == 0
    u = read_field(out / "u.dcf")
    assert np.array_equal(u.values, field_from_spec(u.grid, spec).values)
    x = u.grid.x_axes[0][:, None, None]
    assert np.allclose(u.values, 1.0 + 0.1 * np.sin(2.0 * np.pi * x), atol=1e-14)


def test_verify_mode(tmp_path):
    cfg = write_config(tmp_path, {
        "verify": {"f0": 3.0, "dim": 3, "r_max": 10.0, "n_points": 4096},
    })
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    rep = load_report(out)
    assert rep["verify"]["residual_sup"] <= 1e-8


def test_module_entry_point(tmp_path):
    cfg = write_config(tmp_path, {
        "verify": {"f0": 3.0, "dim": 3, "r_max": 10.0, "n_points": 512},
    })
    out = tmp_path / "out"
    # the child imports the same package as this process, installed or not
    src = str(Path(driftsolve.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "driftsolve.cli", "verify",
         "--config", str(cfg), "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert (out / "report.json").exists()
