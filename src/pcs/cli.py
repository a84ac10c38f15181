"""Command-line front end: synth, acquire, reconstruct, benchmark.

Every command writes a run manifest (canonical JSON with the full config,
seeds, input digest, output paths, and library versions) next to its outputs,
and every CSV embeds the manifest's SHA-256 digest in a leading comment line,
so any number in a results file is traceable to the exact configuration that
produced it.  Benchmark CSVs carry no timing columns: rerunning a manifest
reproduces them byte-identically.
"""

import argparse
import hashlib
import itertools
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np
import scipy

from . import __version__, dataio, metrics, predictors, recon, sensing, solvers, transforms
from .predictors import BlockLSPredictorConfig
from .recon import ReconConfig
from .sensing import Layout
from .signals import Cube3D, Image2D
from .solvers import SolveConfig

# each layout: (--layout name, suite scenario, slice noun in messages, sensing
# and reconstruction entry points by attribute name in sensing and recon)
_LAYOUTS = {
    Layout.ROWS_2D: ("rows2d", "2d", "rows", "acquire_rows_2d", "reconstruct_2d"),
    Layout.BANDS_3D: ("bands3d", "3d", "bands", "acquire_bands_3d", "reconstruct_3d"),
    Layout.SPECTRAL_ROWS_3D: ("spectralrows3d", "3d_rows", "spectral rows", "acquire_spectral_rows_3d",
                              "reconstruct_3d"),
}
_LAYOUT_NAMES = {row[0]: layout for layout, row in _LAYOUTS.items()}
_SCENARIO_LAYOUTS = {row[1]: layout for layout, row in _LAYOUTS.items()}
_FILTERS = {"p1": predictors.P1, "p2": predictors.P2, "p3": predictors.P3}
# the reconstruct options that a flag and a suite key set alike, besides init
# and filter, with their types
_RECON_TYPES = {
    "basis": str, "iters": int, "tol": float, "solver_feas": float, "solver_obj": float,
    "solver_iters": int, "block_size": int,
}
# unconverged solves named per stage by `reconstruct`; the rest are only counted
_UNCONVERGED_LISTED = 10


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(path, command: str, config: dict, seed, source, outputs) -> str:
    """Write the run manifest of command to path and return its digest; source
    is the input file whose digest it records, or None.  The digest is the
    SHA-256 of the other fields' canonical JSON (sorted keys, no spaces)."""
    fields = {
        "command": command,
        "config": config,
        "master_seed": seed,
        "input_digest": None if source is None else _sha256_file(source),
        "outputs": [str(out) for out in outputs],
        "versions": {"artifact": __version__, "numpy": np.__version__, "scipy": scipy.__version__},
    }
    digest = hashlib.sha256(json.dumps(fields, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    Path(path).write_text(json.dumps({"digest": digest, **fields}, sort_keys=True, indent=2) + "\n")
    return digest


def _load_signal(path, layout: Layout):
    """Load a PGM image or a PCS3 cube, detected by magic bytes, as layout
    takes it: a 1-band cube serves as an image for rows2d."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic[:2] == b"P5":
        return dataio.load_image(path)
    if magic != b"PCS3":
        raise ValueError(f"{path}: neither a P5 PGM nor a PCS3 cube file")
    cube = dataio.load_cube(path)
    if layout == Layout.ROWS_2D and cube.samples.shape[2] == 1:
        return Image2D(cube.samples[:, :, 0])
    return cube


def _save_as_cube(samples: np.ndarray, path) -> None:
    """Write rank-2 samples as a 1-band cube, rank-3 samples as they are."""
    dataio.save_cube(Cube3D(np.atleast_3d(samples)), path)


# --- synth -----------------------------------------------------------------------

def cmd_synth(args) -> int:
    out = Path(args.output)
    if args.kind == "image":
        img = dataio.synth_image(args.seed, args.rows, args.cols)
        if out.suffix.lower() == ".pgm":
            dataio.save_image(img, out, maxval=args.maxval)
        else:
            _save_as_cube(img.samples, out)
    else:
        cube = dataio.synth_cube(args.seed, args.rows, args.cols, args.bands)
        dataio.save_cube(cube, out)
    config = {
        "kind": args.kind,
        "rows": args.rows,
        "cols": args.cols,
        "bands": args.bands if args.kind == "cube" else 1,
        "generator_version": dataio.GENERATOR_VERSION,
    }
    _write_manifest(out.with_suffix(out.suffix + ".manifest.json"), "synth", config, args.seed, None, [out])
    print(f"wrote {out}")
    return 0


# --- acquire ---------------------------------------------------------------------

def _acquire(signal, layout: Layout, m: int, seed: int,
             shared_matrix: bool = False, non_compressive: bool = False) -> sensing.MeasurementSet:
    """Measure signal slice by slice through the sensing entry point of layout."""
    num_slices, n = sensing.slice_geometry(layout, signal.samples.shape)
    ensemble = sensing.SeededSensingEnsemble(seed, num_slices, m, n, shared_matrix, non_compressive)
    # looked up at call time, so that a wrapper installed on the module is seen
    return getattr(sensing, _LAYOUTS[layout][3])(signal, ensemble)


def cmd_acquire(args) -> int:
    layout = _LAYOUT_NAMES[args.layout]
    ms = _acquire(_load_signal(args.input, layout), layout, args.m, args.seed,
                  args.shared_matrix, args.non_compressive)
    num_slices, n = ms.ensemble.num_slices, ms.ensemble.n
    out = Path(args.output)
    sensing.save_measurements(ms, out)
    config = {
        "layout": args.layout,
        "m": args.m,
        "num_slices": num_slices,
        "n": n,
        "shared_matrix": args.shared_matrix,
        "non_compressive": args.non_compressive,
    }
    _write_manifest(out.with_suffix(out.suffix + ".manifest.json"), "acquire", config, args.seed,
                    args.input, [out])
    print(f"wrote {out}: {num_slices} slices x {args.m} measurements "
          f"(compression {n / args.m:.2f}x)")
    return 0


# --- reconstruct --------------------------------------------------------------------

def _recon_config(opts: dict) -> ReconConfig:
    """ReconConfig from reconstruct options: parsed flags or a benchmark cell."""
    if opts["filter"] == "blockls":
        flt = BlockLSPredictorConfig(block_size=opts["block_size"])
    elif opts["filter"] in _FILTERS:
        flt = _FILTERS[opts["filter"]]
    else:
        raise ValueError(f"unknown filter {opts['filter']!r}; choose from blockls, {', '.join(_FILTERS)}")
    solver = SolveConfig(
        feasibility_tol=opts["solver_feas"],
        objective_tol=opts["solver_obj"],
        max_solver_iters=opts["solver_iters"],
    )
    return ReconConfig(
        init=opts["init"],
        filter=flt,
        max_outer_iters=opts["iters"],
        convergence_tol=opts["tol"],
        solver=solver,
    )


def _reconstruct(ms, basis, cfg, truth):
    """Run the reconstruction of ms's layout; returns (samples, ReconReport)."""
    # looked up at call time, so that a wrapper installed on the module is seen
    result, report = getattr(recon, _LAYOUTS[ms.layout][4])(ms, basis, cfg, ground_truth=truth)
    return result.samples, report


def cmd_reconstruct(args) -> int:
    ms = sensing.load_measurements(args.input)
    cfg = _recon_config(vars(args))
    basis = recon.slice_basis_for(ms, kind=args.basis)
    truth = None
    if args.truth:
        truth = _load_signal(args.truth, ms.layout)
    samples, report = _reconstruct(ms, basis, cfg, truth)
    prefix = Path(args.output)
    recon_path = prefix.with_suffix(".pcs3")
    report_path = prefix.with_suffix(".report.csv")
    config = {key: getattr(args, key) for key in ("init", "filter", *_RECON_TYPES)}
    digest = _write_manifest(prefix.with_suffix(".manifest.json"), "reconstruct", config,
                             ms.ensemble.master_seed, args.input, [recon_path, report_path])
    _save_as_cube(samples, recon_path)
    rows = [[i, "" if report.mse_trace is None else repr(report.mse_trace[i]),
             "" if i == 0 else repr(report.rel_change_trace[i]), f"{report.elapsed_trace[i]:.3f}"]
            for i in range(report.iterations_run + 1)]
    _write_csv(report_path, digest, ["iteration", "mse", "relative_change", "elapsed_seconds"], rows)
    final = f", final mse {report.mse_trace[-1]:.4e}" if report.mse_trace else ""
    print(f"wrote {recon_path}: {report.iterations_run} iterations, "
          f"converged={report.converged}{final}")
    if report.solver_warnings:
        print(f"note: {len(report.solver_warnings)} slice solves did not converge "
              f"(best iterates kept): {_unconverged_list(report.solver_warnings, ms.layout)}")
    return 0


def _unconverged_list(warnings, layout) -> str:
    """Name the unconverged solves per stage, e.g. 'init: rows 0; sweep 1: rows 17, 45'.

    warnings are ReconReport.solver_warnings, (outer iteration, slice) pairs
    where iteration 0 is the initialization and slice -1 the joint KCS solve.
    Each stage names at most _UNCONVERGED_LISTED slices and counts the rest.
    """
    stages: dict[int, list[int]] = {}
    for stage, i in warnings:
        stages.setdefault(stage, []).append(i)
    parts = []
    for stage, idx in stages.items():
        name = "init" if stage == 0 else f"sweep {stage}"
        if idx == [-1]:
            parts.append(f"{name}: joint solve")
            continue
        listed = ", ".join(map(str, idx[:_UNCONVERGED_LISTED]))
        more = len(idx) - _UNCONVERGED_LISTED
        parts.append(f"{name}: {_LAYOUTS[layout][2]} {listed}" + (f" and {more} more" if more > 0 else ""))
    return "; ".join(parts)


# --- benchmark -----------------------------------------------------------------------

_SUITE_DEFAULTS = {
    "scenario": "2d",
    "rows": "64",
    "cols": "64",
    "bands": "8",
    "m": "16",
    "seeds": "0",
    "init": "separate",
    "filter": "p3",
    "basis": "dct",
    "iters": "8",
    "tol": "1e-4",
    "solver_feas": "1e-3",
    "solver_obj": "1e-4",
    "solver_iters": "2000",
    "block_size": "16",
    "include_omp": "false",
    "omp_budget_fraction": "0.2",
    "save_recons": "true",
    "jobs": "1",
}


_FLAGS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _flag(value: str) -> bool:
    return _FLAGS[value.lower()]


def parse_suite(path) -> dict:
    """Flat key = value format; # starts a comment, blank lines ignored.  An
    unknown scenario, a switch neither true nor false, a value that its
    key's type (_typed) does not take, a list that repeats a value (a cell
    run twice) and jobs below 1 are refused here; the values are kept as
    written, for the manifest."""
    cfg = dict(_SUITE_DEFAULTS)
    for ln, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{ln}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SUITE_DEFAULTS:
            raise ValueError(f"{path}:{ln}: unknown key {key!r}")
        if key == "scenario" and value not in _SCENARIO_LAYOUTS:
            raise ValueError(f"{path}:{ln}: scenario {value!r} is not one of {', '.join(_SCENARIO_LAYOUTS)}")
        if key in ("include_omp", "save_recons") and value.lower() not in _FLAGS:
            raise ValueError(f"{path}:{ln}: {key} {value!r} is not one of {', '.join(_FLAGS)}")
        try:
            typed = _typed(key, value)
        except ValueError as exc:
            raise ValueError(f"{path}:{ln}: {key} {value!r}: {exc}") from None
        if isinstance(typed, list):
            repeated = [v for i, v in enumerate(typed) if v in typed[:i]]
            if repeated:
                raise ValueError(f"{path}:{ln}: {key} {value!r} repeats {repeated[0]!r}")
        if key == "jobs" and typed < 1:
            raise ValueError(f"{path}:{ln}: jobs {value!r} must be >= 1")
        cfg[key] = value
    return cfg


def _csv_list(value: str) -> list[str]:
    return [v.strip() for v in value.split(",") if v.strip()]


# the suite keys every cell carries, with their types; a cell adds m, init,
# filter, seed and the marker omp, which no suite can set
_CELL_TYPES = {
    "scenario": str, "rows": int, "cols": int, "bands": int, **_RECON_TYPES, "omp_budget_fraction": float,
}


def _typed(key: str, value: str):
    """A suite value in its type: m and seeds are lists of ints, init and
    filter lists of names, jobs an int, the _CELL_TYPES keys their type; the
    other keys stay as written."""
    if key in ("m", "seeds"):
        return [int(v) for v in _csv_list(value)]
    if key in ("init", "filter"):
        return _csv_list(value)
    if key == "jobs":
        return int(value)
    return _CELL_TYPES.get(key, str)(value)


# the columns that name a cell in every CSV
_KEY_COLS = ["scenario", "m", "init", "filter", "seed"]
_CSV_NAMES = ("mse_vs_iter.csv", "mse_vs_m.csv", "mse_per_band.csv", "compressibility_vs_iter.csv")


def _cell_scene(cell: dict):
    if cell["scenario"] == "2d":
        return dataio.synth_image(cell["seed"], cell["rows"], cell["cols"])
    return dataio.synth_cube(cell["seed"], cell["rows"], cell["cols"], cell["bands"])


def _run_cell(cell: dict) -> dict:
    """One grid cell: synth, acquire, reconstruct (or the OMP baseline); returns plain rows."""
    if cell["omp"]:
        return _run_omp_cell(cell)
    scene = _cell_scene(cell)
    ms = _acquire(scene, _SCENARIO_LAYOUTS[cell["scenario"]], cell["m"], cell["seed"])
    basis = recon.slice_basis_for(ms, kind=cell["basis"])
    result, report = _reconstruct(ms, basis, _recon_config(cell), scene)
    band_mse = [] if cell["scenario"] == "2d" else [
        metrics.mse(result[:, :, b], scene.samples[:, :, b])
        for b in range(cell["bands"])
    ]
    return {
        "mse_trace": report.mse_trace,
        "rel_trace": report.rel_change_trace,
        "compress_trace": report.compressibility_trace,
        "iterations": report.iterations_run,
        "converged": report.converged,
        "band_mse": band_mse,
        "recon": result,
    }


def _run_omp_cell(cell: dict) -> dict:
    """Whole-signal OMP baseline with the same total measurement budget."""
    truth = _cell_scene(cell).samples
    dims = truth.shape
    n = int(np.prod(dims))
    num_slices, _ = sensing.slice_geometry(_SCENARIO_LAYOUTS[cell["scenario"]], dims)
    m_total = cell["m"] * num_slices
    ens = sensing.SeededSensingEnsemble(cell["seed"], 1, m_total, n)
    phi = sensing.draw_sensing_matrix(ens, 0)
    flat = truth.ravel(order="F")
    y = phi @ flat
    basis = transforms.SparsityBasis(dims, (transforms.DCT,) * len(dims))
    budget = max(1, int(cell["omp_budget_fraction"] * m_total))
    result = solvers.solve_omp(phi, basis, y, sparsity_budget=budget, residual_tol=1e-6)
    rec = transforms.synthesize(basis, result.theta_hat)
    err = float(np.mean((rec - flat) ** 2))
    return {
        "mse_trace": [err, err],
        "rel_trace": [float("nan"), 0.0],
        "compress_trace": None,
        "iterations": result.iterations,
        "converged": result.converged,
        "band_mse": [],
        "recon": rec.reshape(dims, order="F"),
    }


def _attempt(cell: dict, run) -> tuple:
    """(cell, run(), None), or (cell, None, message) when run raises: a failed cell is recorded."""
    try:
        return cell, run(), None
    except Exception as exc:
        return cell, None, str(exc)


def _fmt(value) -> str:
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path, digest, header, rows) -> None:
    with open(path, "w") as fh:
        fh.write(f"# manifest={digest}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def cmd_benchmark(args) -> int:
    if args.jobs < 0:
        raise ValueError(f"--jobs {args.jobs} must be >= 0 (0 takes the suite's jobs)")
    cfg = parse_suite(args.suite)
    outdir = Path(args.output or "benchmark_out")
    outdir.mkdir(parents=True, exist_ok=True)

    m_values = _typed("m", cfg["m"])
    seeds = _typed("seeds", cfg["seeds"])
    base = {key: _typed(key, cfg[key]) for key in _CELL_TYPES}
    cells = [{**base, "m": m, "init": init, "filter": flt, "seed": seed, "omp": False}
             for m, init, flt, seed in itertools.product(
                 m_values, _typed("init", cfg["init"]), _typed("filter", cfg["filter"]), seeds)]
    if _flag(cfg["include_omp"]):
        cells += [{**base, "m": m, "init": "omp", "filter": "-", "seed": seed, "omp": True}
                  for m, seed in itertools.product(m_values, seeds)]

    jobs = args.jobs or _typed("jobs", cfg["jobs"])
    if jobs > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(cells))) as pool:
            futures = [pool.submit(_run_cell, c) for c in cells]
            outcomes = [_attempt(c, fut.result) for c, fut in zip(cells, futures)]
    else:
        outcomes = [_attempt(c, partial(_run_cell, c)) for c in cells]
    done = [(cell, res) for cell, res, err in outcomes if err is None]

    digest = _write_manifest(outdir / "manifest.json", "benchmark", cfg, None, args.suite,
                             [outdir / name for name in _CSV_NAMES])

    if _flag(cfg["save_recons"]) and done:
        (outdir / "recons").mkdir(exist_ok=True)
        for cell, res in done:
            name = "{scenario}_m{m}_{init}_{filter}_s{seed}.pcs3".format(**cell)
            _save_as_cube(res["recon"], outdir / "recons" / name)

    iter_rows, m_rows, band_rows, comp_rows = [], [], [], []
    for cell, res in done:
        key = [cell[c] for c in _KEY_COLS]
        trace = res["mse_trace"]
        iter_rows += [key + [it, v, res["rel_trace"][it]] for it, v in enumerate(trace)]
        gain = (recon.gain_db(trace[0], trace[-1]) if trace[0] > 0 and trace[-1] > 0
                else float("nan"))
        m_rows.append(key + [trace[0], trace[-1], gain, res["iterations"], res["converged"]])
        band_rows += [key + [b, v] for b, v in enumerate(res["band_mse"])]
        comp_rows += [key + [it, c] for it, c in enumerate(res["compress_trace"] or [])]
    headers = (["iteration", "mse", "relative_change"],
               ["init_mse", "final_mse", "gain_db", "iterations", "converged"],
               ["band", "mse"], ["iteration", "mean_row_compressibility"])
    for name, header, rows in zip(_CSV_NAMES, headers, (iter_rows, m_rows, band_rows, comp_rows)):
        _write_csv(outdir / name, digest, _KEY_COLS + header, rows)

    print(f"wrote {len(done)} cells to {outdir} (manifest {digest[:12]})")
    failed = [(cell, err) for cell, _, err in outcomes if err is not None]
    for cell, err in failed:
        print(f"cell failed: {cell['scenario']} m={cell['m']} seed={cell['seed']}: {err}", file=sys.stderr)
    return 0 if not failed else 1


# --- entry point -----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcs",
        description="Progressive compressed-sensing acquisition and iterative reconstruction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic correlated test data")
    p.add_argument("kind", choices=["image", "cube"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rows", type=int, default=64)
    p.add_argument("--cols", type=int, default=64)
    p.add_argument("--bands", type=int, default=8)
    p.add_argument("--maxval", type=int, default=255, help="PGM quantization (image kind)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("acquire", help="take per-slice compressed measurements")
    p.add_argument("input", help="PGM image or PCS3 cube")
    p.add_argument("--layout", choices=sorted(_LAYOUT_NAMES), default="rows2d")
    p.add_argument("-m", type=int, required=True, help="measurements per slice")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shared-matrix", action="store_true",
                   help="reuse one sensing matrix for every slice (ablation)")
    p.add_argument("--non-compressive", action="store_true",
                   help="allow m >= slice length (reference mode)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_acquire)

    p = sub.add_parser("reconstruct", help="iterative reconstruction from measurements")
    p.add_argument("input", help="measurement file from acquire")
    p.add_argument("--init", choices=[recon.INIT_SEPARATE, recon.INIT_KCS], default=recon.INIT_SEPARATE)
    p.add_argument("--filter", choices=[*_FILTERS, "blockls"], default="p3")
    p.add_argument("--basis", choices=["dct", "identity"], default="dct")
    profile = ReconConfig()
    p.add_argument("--iters", type=int, default=profile.max_outer_iters)
    p.add_argument("--tol", type=float, default=profile.convergence_tol)
    p.add_argument("--block-size", type=int, default=BlockLSPredictorConfig().block_size)
    p.add_argument("--solver-feas", type=float, default=profile.solver.feasibility_tol)
    p.add_argument("--solver-obj", type=float, default=profile.solver.objective_tol)
    p.add_argument("--solver-iters", type=int, default=profile.solver.max_solver_iters)
    p.add_argument("--truth", help="ground-truth image/cube for the MSE trace")
    p.add_argument("-o", "--output", required=True, help="output prefix")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("benchmark", help="run a configured grid, emit CSV figures")
    p.add_argument("--suite", required=True, help="flat key=value suite file")
    p.add_argument("--out", dest="output", help="output directory")
    p.add_argument("--jobs", type=int, default=0, help="parallel cells (overrides suite)")
    p.set_defaults(func=cmd_benchmark)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
