"""Benchmark for pcs: acquisition, reconstruction and the l1 solver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; pcs is imported from ./src.  One
process runs one workload with a single caller (a closed loop: the next
operation starts when the previous one has returned).  A round runs the
workload's reference input, which does not depend on the seed, and a fixed
number of inputs generated from --seed; rounds repeat while the next one is
expected to end within --seconds, and at least one runs.  The quality
metrics come from the reference input, so they compare bit for bit across
commits; the timings are medians over every operation of the run.  Every
output is checked against computations made without pcs (oracle.py); an
operation whose check fails counts as failed and the run goes on.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
from spans around the public entry points of pcs (spans.py), and writes the
spans to perfbench/out/.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  --workload all runs
every workload, each in its own process, one after another.
"""

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

REFERENCE_SEED = 0

# 2D: rows2d layout, separate init, P3 filter.  3D: bands3d, KCS init, blockls.
# Sizes are scaled down from the canonical 256x256 / 32x32x16 scenes so that a
# 36 s run holds one round of several inputs; m stays n/4.  "seeded" is the
# number of generated inputs per round, sized so that one round takes about
# 30 s on a 2-core machine.  numpy, scipy and the benchmark's numeric modules
# are imported inside the functions, so that setup_s counts their import.
RECON_WORKLOADS = {
    "rows2d-separate-p3": {
        "seeded": 5,
        "synth": ["image", "--rows", "128", "--cols", "128"],
        "acquire": ["--layout", "rows2d", "-m", "32"],
        "reconstruct": ["--init", "separate", "--filter", "p3", "--iters", "2"],
    },
    "bands3d-kcs-blockls": {
        "seeded": 5,
        "synth": ["cube", "--rows", "24", "--cols", "24", "--bands", "12"],
        "acquire": ["--layout", "bands3d", "-m", "144"],
        "reconstruct": ["--init", "kcs", "--filter", "blockls", "--iters", "2"],
    },
}
# criterion-1 form: N=64, K=5, M=32, 100 problems per batch
PLANTED = {"n": 64, "k": 5, "m": 32, "count": 100, "seeded": 49}
WORKLOADS = [*RECON_WORKLOADS, "planted-l1-batch"]

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s": "s",
    "first_result_s": "s",
    "first_result_mse": "1",
    "result_mse": "1",
    "peak_rss_mb": "MB",
}


def import_pcs() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from pcs import cli, dataio, metrics, predictors, recon, sensing, solvers, transforms

    return {"cli": cli, "dataio": dataio, "metrics": metrics, "predictors": predictors,
            "recon": recon, "sensing": sensing, "solvers": solvers, "transforms": transforms}


def input_seeds(name: str, seed: int) -> list[int]:
    """Seeds of one round: the reference input first, then the generated ones."""
    import numpy as np

    count = (RECON_WORKLOADS.get(name) or PLANTED)["seeded"]
    derived = [int(np.random.SeedSequence([seed, j]).generate_state(1)[0])
               for j in range(1, count + 1)]
    return [REFERENCE_SEED, *derived]


def quiet_main(pcs, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return pcs["cli"].main(argv)


# --- reconstruction workloads ---------------------------------------------------

def recon_setup(pcs, name, seeds, workdir: Path) -> list[dict]:
    spec = RECON_WORKLOADS[name]
    inputs = []
    for s in seeds:
        scene = workdir / f"scene-{s}.pcs3"
        if quiet_main(pcs, ["synth", *spec["synth"], "--seed", str(s), "-o", str(scene)]) != 0:
            raise RuntimeError(f"pcs synth failed for seed {s}")
        inputs.append({"seed": s, "scene": scene})
    return inputs


def recon_op(pcs, name, item, workdir: Path, tracer, corrupt=None) -> dict:
    """acquire + reconstruct one scene, then check the outputs without pcs.

    corrupt, when given, is called with the written reconstruction's path
    before the checks; the benchmark's tests use it to show that a bad
    output fails its operation.
    """
    import oracle

    spec = RECON_WORKLOADS[name]
    meas = workdir / f"meas-{item['seed']}.pcsm"
    prefix = workdir / f"rec-{item['seed']}"
    t0 = time.perf_counter()
    rc_acq = quiet_main(pcs, ["acquire", str(item["scene"]), *spec["acquire"],
                              "--seed", str(item["seed"]), "-o", str(meas)])
    t1 = time.perf_counter()
    rc_rec = quiet_main(pcs, ["reconstruct", str(meas), *spec["reconstruct"],
                              "--truth", str(item["scene"]), "-o", str(prefix)])
    t2 = time.perf_counter()
    if rc_acq or rc_rec:
        return {"ok": False, "why": f"pcs exit codes acquire={rc_acq} reconstruct={rc_rec}"}

    init_span = next(s for s in reversed(tracer.spans) if s["name"].startswith("recon.init_"))
    init_image = tracer.results[init_span["name"]][0].samples
    recon_span = next(s for s in reversed(tracer.spans) if s["name"].startswith("recon.reconstruct_"))
    # slices whose solve pcs reports as not converged (-1 marks the joint KCS solve)
    unconverged = {i for _, i in tracer.results[recon_span["name"]][1].solver_warnings if i >= 0}
    if corrupt is not None:
        corrupt(prefix.with_suffix(".pcs3"))
    measured = oracle.read_measurements(meas)
    truth = oracle.read_cube(item["scene"])
    recon = oracle.read_cube(prefix.with_suffix(".pcs3"))
    if measured["layout"] == oracle.ROWS_2D:
        truth, recon = truth[:, :, 0], recon[:, :, 0]
    result = {
        "acquire_s": t1 - t0,
        "recon_s": t2 - t1,
        "op_s": t2 - t0,
        "first_result_s": init_span["end"] - t1,
        "first_result_mse": oracle.mse(init_image, truth),
        "result_mse": oracle.mse(recon, truth),
        "acquire_err": oracle.acquisition_error(measured, truth),
        "consistency_err": oracle.consistency_error(measured, recon, skip=unconverged),
        "unconverged_slices": len(unconverged),
    }
    failures = []
    if not result["acquire_err"] <= oracle.ACQUIRE_RTOL:
        failures.append(f"acquisition error {result['acquire_err']:.3e}")
    if not result["consistency_err"] <= oracle.CONSISTENCY_RTOL:
        failures.append(f"measurement consistency {result['consistency_err']:.3e}")
    if not result["result_mse"] < result["first_result_mse"]:
        failures.append(f"final mse {result['result_mse']:.4e} not below "
                        f"initial {result['first_result_mse']:.4e}")
    result["ok"] = not failures
    result["why"] = "; ".join(failures)
    return result


# --- planted l1 batch -------------------------------------------------------------

def planted_setup(pcs, seeds) -> list[dict]:
    import oracle

    p = PLANTED
    inputs = []
    for s in seeds:
        a, theta, y = oracle.planted_batch(s, p["n"], p["k"], p["m"], p["count"])
        inputs.append({"seed": s, "a": a, "theta": theta, "y": y})
    return inputs


def planted_op(pcs, item) -> dict:
    import oracle

    cfg = pcs["solvers"].SolveConfig()
    t0 = time.perf_counter()
    state = pcs["solvers"].solve_l1_batch(item["a"], None, item["y"], cfg)
    elapsed = time.perf_counter() - t0
    recovered = oracle.planted_recovered(state.theta, item["theta"])
    feasible = oracle.planted_feasible(item["a"], state.theta, item["y"], cfg.feasibility_tol,
                                       state.converged)
    err = oracle.planted_error(state.theta, item["theta"])
    failures = []
    if recovered < oracle.PLANTED_MIN_RECOVERED * PLANTED["count"]:
        failures.append(f"{recovered}/{PLANTED['count']} problems recovered")
    if not feasible:
        failures.append("a solve reported as converged violates the feasibility bound")
    return {"ok": not failures, "why": "; ".join(failures), "op_s": elapsed,
            "first_result_s": elapsed, "first_result_mse": err, "result_mse": err,
            "recovered": recovered}


# --- one workload in this process ----------------------------------------------------

def setup(pcs, name, seed, workdir: Path) -> list[dict]:
    seeds = input_seeds(name, seed)
    if name in RECON_WORKLOADS:
        return recon_setup(pcs, name, seeds, workdir)
    return planted_setup(pcs, seeds)


def probe_setup_s(name: str, seed: int) -> float:
    """Set-up time of a fresh process: import pcs, generate and write the inputs."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
         "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def run_workload(name, seed, seconds, traced, setup_only=False, corrupt=None) -> dict | None:
    """Run one workload; returns its report (None with setup_only).

    corrupt is passed on to recon_op.
    """
    t0 = time.perf_counter()
    pcs = import_pcs()
    workdir = OUT / f"work-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = setup(pcs, name, seed, workdir)
        setup_s = time.perf_counter() - t0
        if setup_only:
            print(repr(setup_s))
            return None
        setup_samples = [setup_s] + [probe_setup_s(name, seed) for _ in range(2)]
        return measure(pcs, name, seed, seconds, traced, inputs, workdir,
                       statistics.median(setup_samples), corrupt)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(pcs, name, seed, seconds, traced, inputs, workdir, setup_s, corrupt) -> dict:
    import resource

    import numpy as np

    import spans as tracing

    tracer = tracing.Tracer(pcs, tracing.TRACED if traced else tracing.UNTRACED)
    span_path = OUT / f"spans-{name}-seed{seed}.jsonl.gz"
    if traced:
        span_path.unlink(missing_ok=True)
    ops, per_op_layers, failures = [], [], []
    tracer.install()
    try:
        start, rounds, elapsed = time.perf_counter(), 0, 0.0
        while rounds == 0 or elapsed + elapsed / rounds <= seconds:
            for item in inputs:
                tracer.op = len(ops)
                try:
                    if name in RECON_WORKLOADS:
                        result = recon_op(pcs, name, item, workdir, tracer, corrupt)
                    else:
                        result = planted_op(pcs, item)
                except Exception as exc:  # one failed operation must not end the run
                    result = {"ok": False, "why": f"{type(exc).__name__}: {exc}"}
                result["reference"] = item["seed"] == REFERENCE_SEED
                ops.append(result)
                if not result["ok"]:
                    failures.append(f"op {len(ops) - 1} (input seed {item['seed']}): {result['why']}")
                op_spans = tracer.take()
                if traced:
                    per_op_layers.append(tracing.op_layer_metrics(op_spans))
                    tracing.append_spans(span_path, op_spans)
            rounds += 1
            elapsed = time.perf_counter() - start
    finally:
        tracer.uninstall()

    good = [r for r in ops if r["ok"]]
    ref = [r for r in good if r["reference"]]
    report = {"workload": name, "seed": seed, "samples": len(good)}
    if traced:
        metrics = {k: {"value": v, "unit": tracing.LAYER_UNITS[k]}
                   for k, v in tracing.median_layer_metrics(per_op_layers).items()}
        report["span_file"] = os.path.relpath(span_path)
    else:
        values = {
            "setup_s": setup_s,
            "op_s": statistics.median(r["op_s"] for r in good) if good else None,
            "first_result_s": statistics.median(r["first_result_s"] for r in good) if good else None,
            "first_result_mse": statistics.median(r["first_result_mse"] for r in ref) if ref else None,
            "result_mse": statistics.median(r["result_mse"] for r in ref) if ref else None,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items() if v is not None}
    extra = {}
    if good and name in RECON_WORKLOADS:
        for key in ("acquire_s", "recon_s"):
            extra[key] = statistics.median(r[key] for r in good)
        extra["max_acquire_err"] = max(r["acquire_err"] for r in good)
        extra["max_consistency_err"] = max(r["consistency_err"] for r in good)
        extra["max_unconverged_slices"] = max(r["unconverged_slices"] for r in good)
    if good and len(good) >= 40:
        extra["op_p90_s"] = float(np.percentile([r["op_s"] for r in good], 90))
    if good and name == "planted-l1-batch":
        extra["min_recovered"] = min(r["recovered"] for r in good)
    report["extra"] = extra
    report["failures"] = failures
    report["result"] = {"correct": not failures and bool(good), "attempted": len(ops),
                        "failed": len(failures), "metrics": metrics}
    return report


# --- command line -----------------------------------------------------------------------

def print_report(report: dict) -> None:
    r = report["result"]
    print(f"workload {report['workload']} seed {report['seed']}: attempted {r['attempted']}, "
          f"failed {r['failed']}, correct {r['correct']}")
    for line in report["failures"]:
        print(f"  FAILED {line}")
    for key, m in r["metrics"].items():
        print(f"  {key} = {m['value']:.6g} {m['unit']} (n={report['samples']})")
    for key, value in report["extra"].items():
        print(f"  [{key} = {value:.6g}]")
    if "span_file" in report:
        print(f"  spans written to {report['span_file']}")


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pcs").is_dir():
        print(f"error: no pcs sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          setup_only=args.setup_only)
    if report is None:
        return 0
    print_report(report)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n")
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
