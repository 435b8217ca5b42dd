"""Closed-loop benchmark of the driftsolve solvers.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload scalar-drift --seed 1 --seconds 35 --trace 0

One client poses one problem at a time and waits for the answer.  The
workload's problem sets are built from ``--seed`` and solved in order,
cycling, while the next set still fits in ``--seconds`` (the first set
always runs).  Every answer is checked; a ``SolverError`` is timed and
counted as a failed problem, never retried or skipped.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` replays the
leading problems of the first set once untraced and twice under the span tracer of
``tracing.py``, prints the per-layer metrics of the first traced pass,
states the tracing overhead, checks that the exact counts of both traced
passes agree, and writes the spans under ``perfbench/out/``.

The last line of standard output is the result object; the line before it
carries the input digest, per-kind outcomes, a host-noise probe and the
environment, none of which rescale any metric.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BUILD_REPEATS = 3
FFT_REF_LOOPS = 40
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# per-layer metrics of a traced run and their units; see README.md
PER_LAYER = {
    "grid.fft.calls": "count",
    "grid.fft.points": "count",
    "grid.fft.bytes_computed": "B",
    "grid.solve_scalar_linear.calls": "count",
    "grid.solve_scalar_linear.s": "s",
    "grid.gmres.calls": "count",
    "grid.gmres.s": "s",
    "grid.lame_invert.calls": "count",
    "grid.lame_invert.s": "s",
    "scalar.sweeps": "count",
    "scalar.monotone_iterate.s": "s",
    "scalar.solve_gen_eq.self_s": "s",
    "scalar.find_supersolution.s": "s",
    "stability.smallest_eigenvalue.s": "s",
    "stability.linear_solves": "count",
    "stability.coercivity_eigenvalue.s": "s",
    "coupled.check_hypotheses.s": "s",
    "coupled.estimate_sobolev_constant.s": "s",
    "coupled.fixed_point_solve.self_s": "s",
    "coupled.outer_iterations": "count",
    "momentum.solve_lame.s": "s",
    "momentum.defect_steps": "count",
    "momentum.estimate_C1.calls": "count",
    "momentum.estimate_C1.s": "s",
    "momentum.estimate_C1.setup_s": "s",
    "physical.map_parameters.s": "s",
    "physical.solve_drift_momentum.s": "s",
    "physical.constraint_residuals.s": "s",
    "trace.spans": "count",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_s": "s",
}
EXACT_COUNTS = ("grid.fft.calls", "scalar.sweeps", "momentum.defect_steps",
                "stability.linear_solves", "coupled.outer_iterations")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("scalar-drift", "coupled-abstract", "vector-dims"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_solver():
    """Import driftsolve from this checkout's ``src`` and nowhere else."""
    if not (SRC / "driftsolve" / "__init__.py").is_file():
        raise SystemExit(f"error: no driftsolve sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import driftsolve

    if Path(driftsolve.__file__).resolve().parent != SRC / "driftsolve":
        raise SystemExit(f"error: imported driftsolve from {driftsolve.__file__}")
    import problems
    return problems


# ------------------------------------------------------------- host probe


def fft_reference_s():
    """Seconds for a fixed numpy FFT loop; a gauge of host speed only."""
    import numpy as np

    a = np.random.default_rng(0).normal(size=(32, 32, 32))
    np.fft.ifftn(np.fft.fftn(a))  # the process's first transform is slower
    t = time.perf_counter()
    for _ in range(FFT_REF_LOOPS):
        np.fft.ifftn(np.fft.fftn(a))
    return time.perf_counter() - t


def steal_ticks():
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def environment():
    import numpy as np
    import scipy

    blas = None
    try:
        cfg = np.show_config(mode="dicts")
        dep = cfg["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


# ---------------------------------------------------------------- solving


def run_problem(prob, tally, tracer=None):
    """Solve one problem, time the solve, grade it and record the outcome.

    The gate runs with the tracer paused, so only solver work is traced."""
    from driftsolve.errors import SolverError

    if tracer is not None:
        tracer.active = True
    t = time.perf_counter()
    try:
        result = prob.solve()
    except SolverError as err:
        elapsed = time.perf_counter() - t
        outcome, detail = f"error:{type(err).__name__}", str(err)
    else:
        elapsed = time.perf_counter() - t
        if tracer is not None:
            tracer.active = False
        outcome, detail = prob.check(result)
    if tracer is not None:
        tracer.active = False
    tally.append({"kind": prob.kind, "s": elapsed, "outcome": outcome,
                  "detail": detail})
    return elapsed


def timed_loop(sets, seconds):
    """Solve the sets in order, cycling, while the next one still fits."""
    tally = []
    t0 = time.perf_counter()
    for i in itertools.count():
        t_set = time.perf_counter()
        for prob in sets[i % len(sets)]:
            run_problem(prob, tally)
        elapsed = time.perf_counter() - t0
        if elapsed + (time.perf_counter() - t_set) > seconds:
            return tally


def per_kind(tally):
    out = {}
    for rec in tally:
        row = out.setdefault(rec["kind"], {"n": 0, "outcomes": {}, "s": []})
        row["n"] += 1
        row["outcomes"][rec["outcome"]] = row["outcomes"].get(rec["outcome"], 0) + 1
        row["s"].append(rec["s"])
    for row in out.values():
        row["median_s"] = statistics.median(row.pop("s"))
    return out


# ---------------------------------------------------------------- tracing


def layer_metrics(tracer, setup_spans, pass_tag):
    spans = tracer.spans
    table, edges = tracing.summarize(
        spans, keep=lambda rec: rec[tracing.PROBLEM].startswith(pass_tag))
    setup_table, _ = tracing.summarize(
        spans[:setup_spans], keep=lambda rec: rec[tracing.PROBLEM] == "setup")

    def calls(name):
        return table.get(name, (0, 0.0, 0.0))[0]

    def secs(name):
        return table.get(name, (0, 0.0, 0.0))[1]

    def self_secs(name):
        return table.get(name, (0, 0.0, 0.0))[2]

    m = {
        "scalar.sweeps": edges.get(("scalar.monotone_iterate", "scalar.solve_gen_eq"), 0),
        "stability.linear_solves": edges.get(
            ("stability.smallest_eigenvalue", "grid.solve_scalar_linear"), 0),
        "momentum.defect_steps": edges.get(("momentum.solve_lame", "grid.lame_invert"), 0),
        "coupled.outer_iterations": edges.get(
            ("coupled.fixed_point_solve", "scalar.monotone_iterate"), 0),
        "grid.solve_scalar_linear.calls": calls("grid.solve_scalar_linear"),
        "grid.solve_scalar_linear.s": secs("grid.solve_scalar_linear"),
        "grid.gmres.calls": calls("grid.gmres"),
        "grid.gmres.s": secs("grid.gmres"),
        "grid.lame_invert.calls": calls("grid.lame_invert"),
        "grid.lame_invert.s": secs("grid.lame_invert"),
        "scalar.monotone_iterate.s": secs("scalar.monotone_iterate"),
        "scalar.solve_gen_eq.self_s": self_secs("scalar.solve_gen_eq"),
        "scalar.find_supersolution.s": secs("scalar.find_supersolution"),
        "stability.smallest_eigenvalue.s": secs("stability.smallest_eigenvalue"),
        "stability.coercivity_eigenvalue.s": secs("stability.coercivity_eigenvalue"),
        "coupled.check_hypotheses.s": secs("coupled.check_hypotheses"),
        "coupled.estimate_sobolev_constant.s": secs("coupled.estimate_sobolev_constant"),
        "coupled.fixed_point_solve.self_s": self_secs("coupled.fixed_point_solve"),
        "momentum.solve_lame.s": secs("momentum.solve_lame"),
        "momentum.estimate_C1.calls": calls("momentum.estimate_C1"),
        "momentum.estimate_C1.s": secs("momentum.estimate_C1"),
        "momentum.estimate_C1.setup_s": setup_table.get("momentum.estimate_C1",
                                                        (0, 0.0, 0.0))[1],
        "physical.map_parameters.s": secs("physical.map_parameters"),
        "physical.solve_drift_momentum.s": secs("physical.solve_drift_momentum"),
        "physical.constraint_residuals.s": secs("physical.constraint_residuals"),
        "trace.spans": sum(row[0] for row in table.values()),
    }
    return m, table


# -------------------------------------------------------------- workflows


def untraced_run(sets, args):
    tally = timed_loop(sets, args.seconds)
    times = [rec["s"] for rec in tally]
    verified = sum(rec["outcome"] == "verified" for rec in tally)
    metrics = {
        "solve_s_p50": (statistics.median(times), "s"),
        "verified_per_min": (verified / (sum(times) / 60.0), "1/min"),
    }
    return tally, metrics


def traced_run(problems_mod, first_set, n_traced, tracer, setup_spans):
    """Replay the leading problems untraced, then twice traced."""
    replay = first_set[:n_traced]
    tally = []
    t = time.perf_counter()
    for prob in replay:
        run_problem(prob, tally)
    untraced_s = time.perf_counter() - t

    passes = []
    for tag in ("B", "C"):
        tracer.install(namespaces=(problems_mod,))
        fft0 = (tracer.fft_calls, tracer.fft_points)
        t = time.perf_counter()
        try:
            for i, prob in enumerate(replay):
                tracer.problem = f"{tag}{i}:{prob.kind}"
                run_problem(prob, tally, tracer)
        finally:
            tracer.uninstall()
        elapsed = time.perf_counter() - t
        m, table = layer_metrics(tracer, setup_spans, tag)
        m["grid.fft.calls"] = tracer.fft_calls - fft0[0]
        m["grid.fft.points"] = tracer.fft_points - fft0[1]
        passes.append((elapsed, m, table))

    (traced_s, m, table), (_, m2, table2) = passes
    repeat = {k: (m[k], m2[k]) for k in EXACT_COUNTS}
    repeat_ok = (all(a == b for a, b in repeat.values())
                 and {k: v[0] for k, v in table.items()}
                 == {k: v[0] for k, v in table2.items()})
    # bytes a transform reads and writes as complex128, computed from sizes
    m["grid.fft.bytes_computed"] = 32 * m["grid.fft.points"]
    m["trace.untraced_s"] = untraced_s
    m["trace.traced_s"] = traced_s
    m["trace.overhead_s"] = traced_s - untraced_s
    info = {"repeat_counts": repeat, "repeat_ok": repeat_ok,
            "functions": {k: {"calls": v[0], "s": v[1], "self_s": v[2]}
                          for k, v in sorted(table.items())}}
    return tally, m, info


def main(argv=None):
    args = parse_args(argv)
    problems = import_solver()
    t_imported = time.perf_counter()
    fft_ref_start, steal_start = fft_reference_s(), steal_ticks()

    make_sets, n_traced = problems.WORKLOADS[args.workload]
    build_s = []
    for _ in range(BUILD_REPEATS):
        t = time.perf_counter()
        sets = make_sets(args.seed)
        build_s.append(time.perf_counter() - t)

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(namespaces=(problems,))
    t = time.perf_counter()
    try:
        problems.warm_up(sets[0])
    finally:
        if tracer is not None:
            tracer.uninstall()
    warm_s = time.perf_counter() - t
    setup_s = (t_imported - T_START) + statistics.median(build_s) + warm_s

    if tracer is None:
        tally, metrics = untraced_run(sets, args)
        metrics["setup_s"] = (setup_s, "s")
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (rss_kib / 1024.0, "MB")
        extra = {}
    else:
        setup_spans = len(tracer.spans)
        tally, layer, extra = traced_run(problems, sets[0], n_traced,
                                         tracer, setup_spans)
        metrics = {k: (layer[k], unit) for k, unit in PER_LAYER.items()}
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.tsv")

    failed = sum(rec["outcome"] != "verified" for rec in tally)
    wrong = [rec for rec in tally if rec["outcome"] == "wrong"]
    correct = not wrong and extra.get("repeat_ok", True)
    steal_end = steal_ticks()
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "input_digest": problems.digest([p for s in sets for p in s]),
        "failed_frac": failed / len(tally),
        "per_kind": per_kind(tally),
        "setup_parts_s": {"imports": t_imported - T_START,
                          "build_median": statistics.median(build_s),
                          "warm": warm_s},
        "host": {"fft_ref_s": [fft_ref_start, fft_reference_s()],
                 "steal_ticks": (None if steal_start is None or steal_end is None
                                 else steal_end - steal_start)},
        "env": environment(),
        **extra,
    }
    for rec in wrong:
        print(f"wrong answer: {rec['kind']}: {rec['detail']}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": len(tally),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
