"""Error hierarchy contracts used by callers to branch on failure modes."""

import inspect
import types

import pytest

import driftsolve
from driftsolve import errors
from driftsolve.errors import (
    ConditionViolated,
    ConfigError,
    NonConvergence,
    NotASupersolution,
    NoSupersolutionFound,
    SolverError,
    UnderResolved,
)


def error_family_faults(module, exported):
    """Each exception class of ``module`` that is not a ``SolverError``
    (``ConfigError`` aside) or is missing from ``exported``."""
    faults = []
    for name, cls in inspect.getmembers(module, inspect.isclass):
        if not issubclass(cls, BaseException) or cls.__module__ != module.__name__:
            continue
        if name != "ConfigError" and not issubclass(cls, SolverError):
            faults.append(f"{name} is not a SolverError")
        if name not in exported:
            faults.append(f"{name} is not exported")
    return faults


def test_solver_error_family():
    assert error_family_faults(errors, driftsolve.__all__) == []
    assert issubclass(SolverError, Exception)
    assert not issubclass(ConfigError, SolverError)


def test_error_family_scan_flags_unexported_and_stray_classes():
    fake = types.ModuleType("fake_errors")
    exec("from driftsolve.errors import SolverError\n"
         "class Listed(SolverError): pass\n"
         "class Hidden(SolverError): pass\n"
         "class Stray(Exception): pass\n", fake.__dict__)
    assert error_family_faults(fake, ["SolverError", "Listed", "Stray"]) == [
        "Hidden is not exported", "Stray is not a SolverError"]


def test_under_resolved_carries_content_and_limit():
    err = UnderResolved(content=5.5e-3, limit=1.3e-7)
    assert err.content == 5.5e-3
    assert err.limit == 1.3e-7
    assert "5.500e-03" in str(err) and "1.300e-07" in str(err)


def test_nonconvergence_carries_diagnostics():
    err = NonConvergence("stalled", iterations=17, residual=3.5e-4)
    assert err.iterations == 17
    assert err.residual == pytest.approx(3.5e-4)
    assert "stalled" in str(err)


def test_not_a_supersolution_carries_defect():
    err = NotASupersolution("initial barrier", defect=-0.25)
    assert err.defect == -0.25
    assert err.node == "initial barrier"


def test_no_supersolution_found_carries_best_attempt():
    err = NoSupersolutionFound(best_defect=-0.03, best_value=1.2)
    assert err.best_defect == -0.03
    assert err.best_value == 1.2


def test_condition_violated_carries_margin():
    err = ConditionViolated("coefficient bound", margin=0.2)
    assert err.margin == 0.2
    assert err.node == "coefficient bound"
