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
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__, dataio, metrics, predictors, recon, sensing, solvers, transforms
from .predictors import BlockLSPredictorConfig
from .recon import ReconConfig
from .sensing import Layout
from .signals import Cube3D, Image2D
from .solvers import SolveConfig

_LAYOUT_NAMES = {
    "rows2d": Layout.ROWS_2D,
    "bands3d": Layout.BANDS_3D,
    "spectralrows3d": Layout.SPECTRAL_ROWS_3D,
}
_FILTERS = {"p1": predictors.P1, "p2": predictors.P2, "p3": predictors.P3}
# the sensing entry point of each layout, by module attribute name
_ACQUIRE = {
    Layout.ROWS_2D: "acquire_rows_2d",
    Layout.BANDS_3D: "acquire_bands_3d",
    Layout.SPECTRAL_ROWS_3D: "acquire_spectral_rows_3d",
}
_SCENARIO_LAYOUTS = {"2d": Layout.ROWS_2D, "3d": Layout.BANDS_3D, "3d_rows": Layout.SPECTRAL_ROWS_3D}
_SLICE_NOUNS = {Layout.ROWS_2D: "rows", Layout.BANDS_3D: "bands", Layout.SPECTRAL_ROWS_3D: "spectral rows"}
# unconverged solves named per stage by `reconstruct`; the rest are only counted
_UNCONVERGED_LISTED = 10


@dataclass
class RunManifest:
    command: str
    config: dict
    master_seed: int | None
    input_digest: str | None
    outputs: list
    versions: dict

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def canonical_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    def write(self, path) -> str:
        d = self.digest()
        payload = json.dumps({"digest": d, **asdict(self)}, sort_keys=True, indent=2)
        Path(path).write_text(payload + "\n")
        return d


def _versions() -> dict:
    import scipy

    return {"artifact": __version__, "numpy": np.__version__, "scipy": scipy.__version__}


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _load_signal(path):
    """Load a PGM image or a PCS3 cube, detected by magic bytes."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic[:2] == b"P5":
        return dataio.load_image(path)
    if magic == b"PCS3":
        return dataio.load_cube(path)
    raise ValueError(f"{path}: neither a P5 PGM nor a PCS3 cube file")


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


# --- synth -----------------------------------------------------------------------

def cmd_synth(args) -> int:
    out = Path(args.output)
    if args.kind == "image":
        img = dataio.synth_image(args.seed, args.rows, args.cols)
        if out.suffix == ".pgm":
            dataio.save_image(img, out, maxval=args.maxval)
        else:
            dataio.save_cube(Cube3D(img.samples[:, :, None]), out)
    else:
        cube = dataio.synth_cube(args.seed, args.rows, args.cols, args.bands)
        dataio.save_cube(cube, out)
    manifest = RunManifest(
        command="synth",
        config={
            "kind": args.kind,
            "rows": args.rows,
            "cols": args.cols,
            "bands": args.bands if args.kind == "cube" else 1,
            "generator_version": dataio.GENERATOR_VERSION,
        },
        master_seed=args.seed,
        input_digest=None,
        outputs=[str(out)],
        versions=_versions(),
    )
    manifest.write(out.with_suffix(out.suffix + ".manifest.json"))
    print(f"wrote {out}")
    return 0


# --- acquire ---------------------------------------------------------------------

def _acquire(signal, layout: Layout, m: int, seed: int,
             shared_matrix: bool = False, non_compressive: bool = False) -> sensing.MeasurementSet:
    """Measure signal slice by slice through the sensing entry point of layout.

    A 1-band cube serves as an image for rows2d.
    """
    if layout == Layout.ROWS_2D and isinstance(signal, Cube3D) and signal.n_bands == 1:
        signal = Image2D(signal.samples[:, :, 0])
    num_slices, n = sensing.slice_geometry(layout, signal.samples.shape)
    ensemble = sensing.SeededSensingEnsemble(seed, num_slices, m, n, shared_matrix, non_compressive)
    # looked up at call time, so that a wrapper installed on the module is seen
    return getattr(sensing, _ACQUIRE[layout])(signal, ensemble)


def cmd_acquire(args) -> int:
    ms = _acquire(_load_signal(args.input), _LAYOUT_NAMES[args.layout], args.m, args.seed,
                  args.shared_matrix, args.non_compressive)
    num_slices, n = ms.ensemble.num_slices, ms.ensemble.n
    out = Path(args.output)
    sensing.save_measurements(ms, out)
    manifest = RunManifest(
        command="acquire",
        config={
            "layout": args.layout,
            "m": args.m,
            "num_slices": num_slices,
            "n": n,
            "shared_matrix": args.shared_matrix,
            "non_compressive": args.non_compressive,
        },
        master_seed=args.seed,
        input_digest=_sha256_file(args.input),
        outputs=[str(out)],
        versions=_versions(),
    )
    manifest.write(out.with_suffix(out.suffix + ".manifest.json"))
    print(f"wrote {out}: {num_slices} slices x {args.m} measurements "
          f"(compression {n / args.m:.2f}x)")
    return 0


# --- reconstruct --------------------------------------------------------------------

def _recon_config(opts: dict) -> ReconConfig:
    """ReconConfig from reconstruct options: parsed flags or a benchmark cell."""
    if opts["filter"] == "blockls":
        flt = BlockLSPredictorConfig(block_size=opts["block_size"])
    else:
        flt = _FILTERS[opts["filter"]]
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
    """Run the reconstruction of ms's layout; returns (Cube3D, ReconReport).

    An image comes back as a 1-band cube.  recon is read at call time, so
    that a wrapper installed on the module is seen.
    """
    if ms.layout == Layout.ROWS_2D:
        result, report = recon.reconstruct_2d(ms, basis, cfg, ground_truth=truth)
        return Cube3D(result.samples[:, :, None]), report
    return recon.reconstruct_3d(ms, basis, cfg, ground_truth=truth)


def cmd_reconstruct(args) -> int:
    ms = sensing.load_measurements(args.input)
    cfg = _recon_config(vars(args))
    basis = recon.slice_basis_for(ms, kind=args.basis)
    truth = None
    if args.truth:
        truth = _load_signal(args.truth)
        want = ms.signal_shape
        got = truth.samples.shape
        if len(want) == 2 and got == want + (1,):
            truth = Image2D(truth.samples[:, :, 0])
            got = truth.samples.shape
        if got != want:
            return _fail(f"truth shape {got} does not match measurements {want}")
    cube, report = _reconstruct(ms, basis, cfg, truth)
    prefix = Path(args.output)
    recon_path = prefix.with_suffix(".pcs3")
    report_path = prefix.with_suffix(".report.csv")
    manifest = RunManifest(
        command="reconstruct",
        config={
            "init": args.init,
            "filter": args.filter,
            "basis": args.basis,
            "iters": args.iters,
            "tol": args.tol,
            "solver_feas": args.solver_feas,
            "solver_obj": args.solver_obj,
            "solver_iters": args.solver_iters,
            "block_size": args.block_size,
        },
        master_seed=ms.ensemble.master_seed,
        input_digest=_sha256_file(args.input),
        outputs=[str(recon_path), str(report_path)],
        versions=_versions(),
    )
    digest = manifest.write(prefix.with_suffix(".manifest.json"))
    dataio.save_cube(cube, recon_path)
    report.to_csv(report_path, manifest_digest=digest)
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
        parts.append(f"{name}: {_SLICE_NOUNS[layout]} {listed}" + (f" and {more} more" if more > 0 else ""))
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


def parse_suite(path) -> dict:
    """Flat key = value format; # starts a comment, blank lines ignored."""
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
        cfg[key] = value
    return cfg


def _csv_list(value: str) -> list[str]:
    return [v.strip() for v in value.split(",") if v.strip()]


def _cell_scene(cell: dict):
    if cell["scenario"] == "2d":
        return dataio.synth_image(cell["seed"], cell["rows"], cell["cols"])
    return dataio.synth_cube(cell["seed"], cell["rows"], cell["cols"], cell["bands"])


def _run_benchmark_cell(cell: dict) -> dict:
    """One grid cell: synth, acquire, reconstruct; returns plain rows."""
    scenario = cell["scenario"]
    scene = _cell_scene(cell)
    ms = _acquire(scene, _SCENARIO_LAYOUTS[scenario], cell["m"], cell["seed"])
    basis = recon.slice_basis_for(ms, kind=cell["basis"])
    result, report = _reconstruct(ms, basis, _recon_config(cell), scene)
    band_mse = [] if scenario == "2d" else [
        metrics.mse(result.samples[:, :, b], scene.samples[:, :, b])
        for b in range(cell["bands"])
    ]
    key = {
        "scenario": scenario,
        "m": cell["m"],
        "init": cell["init"],
        "filter": cell["filter"],
        "seed": cell["seed"],
    }
    return {
        "key": key,
        "mse_trace": report.mse_trace,
        "rel_trace": report.rel_change_trace,
        "compress_trace": report.compressibility_trace,
        "iterations": report.iterations_run,
        "converged": report.converged,
        "band_mse": band_mse,
        "recon": result.samples,
    }


def _run_omp_cell(cell: dict) -> dict:
    """Whole-signal OMP baseline with the same total measurement budget."""
    scenario = cell["scenario"]
    seed = cell["seed"]
    truth = _cell_scene(cell).samples
    dims = truth.shape
    n = int(np.prod(dims))
    num_slices, _ = sensing.slice_geometry(_SCENARIO_LAYOUTS[scenario], dims)
    m_total = cell["m"] * num_slices
    ens = sensing.SeededSensingEnsemble(seed, 1, m_total, n)
    phi = sensing.draw_sensing_matrix(ens, 0)
    flat = truth.ravel(order="F")
    y = phi @ flat
    basis = transforms.SparsityBasis(dims, (transforms.DCT,) * len(dims))
    budget = max(1, int(cell["omp_budget_fraction"] * m_total))
    result = solvers.solve_omp(phi, basis, y, sparsity_budget=budget, residual_tol=1e-6)
    rec = transforms.synthesize(basis, result.theta_hat)
    err = float(np.mean((rec - flat) ** 2))
    key = {"scenario": scenario, "m": cell["m"], "init": "omp", "filter": "-", "seed": seed}
    return {
        "key": key,
        "mse_trace": [err, err],
        "rel_trace": [float("nan"), 0.0],
        "compress_trace": None,
        "iterations": result.iterations,
        "converged": result.converged,
        "band_mse": [],
        "recon": rec.reshape(dims, order="F"),
    }


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
    cfg = parse_suite(args.suite)
    outdir = Path(args.output or "benchmark_out")
    outdir.mkdir(parents=True, exist_ok=True)

    m_values = [int(v) for v in _csv_list(cfg["m"])]
    seeds = [int(v) for v in _csv_list(cfg["seeds"])]
    inits = _csv_list(cfg["init"])
    filters = _csv_list(cfg["filter"])
    cells = []
    for m, init, flt, seed in itertools.product(m_values, inits, filters, seeds):
        cells.append(
            {
                "kind": "recon",
                "scenario": cfg["scenario"],
                "rows": int(cfg["rows"]),
                "cols": int(cfg["cols"]),
                "bands": int(cfg["bands"]),
                "m": m,
                "seed": seed,
                "init": init,
                "filter": flt,
                "basis": cfg["basis"],
                "iters": int(cfg["iters"]),
                "tol": float(cfg["tol"]),
                "solver_feas": float(cfg["solver_feas"]),
                "solver_obj": float(cfg["solver_obj"]),
                "solver_iters": int(cfg["solver_iters"]),
                "block_size": int(cfg["block_size"]),
                "omp_budget_fraction": float(cfg["omp_budget_fraction"]),
            }
        )
    if cfg["include_omp"].lower() in ("true", "1", "yes"):
        for m, seed in itertools.product(m_values, seeds):
            base = {
                "kind": "omp",
                "scenario": cfg["scenario"],
                "rows": int(cfg["rows"]),
                "cols": int(cfg["cols"]),
                "bands": int(cfg["bands"]),
                "m": m,
                "seed": seed,
                "omp_budget_fraction": float(cfg["omp_budget_fraction"]),
            }
            cells.append(base)

    jobs = args.jobs or int(cfg["jobs"])
    results = []
    failures = []
    if jobs > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_cell_worker, c) for c in cells]
            for i, fut in enumerate(futures):
                try:
                    results.append((i, fut.result()))
                except Exception as exc:  # cell failure: record, keep going
                    failures.append((i, cells[i], str(exc)))
    else:
        for i, c in enumerate(cells):
            try:
                results.append((i, _cell_worker(c)))
            except Exception as exc:
                failures.append((i, c, str(exc)))
    results.sort(key=lambda pair: pair[0])

    manifest = RunManifest(
        command="benchmark",
        config=cfg,
        master_seed=None,
        input_digest=_sha256_file(args.suite),
        outputs=[
            str(outdir / name)
            for name in (
                "mse_vs_iter.csv",
                "mse_vs_m.csv",
                "mse_per_band.csv",
                "compressibility_vs_iter.csv",
            )
        ],
        versions=_versions(),
    )
    digest = manifest.write(outdir / "manifest.json")

    key_cols = ["scenario", "m", "init", "filter", "seed"]

    def key_vals(res):
        return [res["key"][c] for c in key_cols]

    save_recons = cfg["save_recons"].lower() in ("true", "1", "yes")
    if save_recons and results:
        (outdir / "recons").mkdir(exist_ok=True)
        for _, res in results:
            k = res["key"]
            name = f"{k['scenario']}_m{k['m']}_{k['init']}_{k['filter']}_s{k['seed']}.pcs3"
            arr = res["recon"]
            cube = Cube3D(arr[:, :, None] if arr.ndim == 2 else arr)
            dataio.save_cube(cube, outdir / "recons" / name)

    iter_rows, m_rows, band_rows, comp_rows = [], [], [], []
    for _, res in results:
        mse_trace = res["mse_trace"]
        for it, mse_val in enumerate(mse_trace):
            iter_rows.append(key_vals(res) + [it, mse_val, res["rel_trace"][it]])
        m_rows.append(
            key_vals(res)
            + [
                mse_trace[0],
                mse_trace[-1],
                recon.gain_db(mse_trace[0], mse_trace[-1])
                if mse_trace[0] > 0 and mse_trace[-1] > 0
                else float("nan"),
                res["iterations"],
                res["converged"],
            ]
        )
        for b, v in enumerate(res["band_mse"]):
            band_rows.append(key_vals(res) + [b, v])
        if res["compress_trace"]:
            for it, c in enumerate(res["compress_trace"]):
                comp_rows.append(key_vals(res) + [it, c])

    _write_csv(outdir / "mse_vs_iter.csv", digest,
               key_cols + ["iteration", "mse", "relative_change"], iter_rows)
    _write_csv(outdir / "mse_vs_m.csv", digest,
               key_cols + ["init_mse", "final_mse", "gain_db", "iterations", "converged"], m_rows)
    _write_csv(outdir / "mse_per_band.csv", digest, key_cols + ["band", "mse"], band_rows)
    _write_csv(outdir / "compressibility_vs_iter.csv", digest,
               key_cols + ["iteration", "mean_row_compressibility"], comp_rows)

    print(f"wrote {len(results)} cells to {outdir} (manifest {digest[:12]})")
    for _, cell, err in failures:
        print(f"cell failed: {cell.get('scenario')} m={cell.get('m')} seed={cell.get('seed')}: {err}",
              file=sys.stderr)
    return 0 if not failures else 1


def _cell_worker(cell: dict) -> dict:
    if cell["kind"] == "omp":
        return _run_omp_cell(cell)
    return _run_benchmark_cell(cell)


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
    p.add_argument("--init", choices=["separate", "kcs"], default="separate")
    p.add_argument("--filter", choices=["p1", "p2", "p3", "blockls"], default="p3")
    p.add_argument("--basis", choices=["dct", "identity"], default="dct")
    p.add_argument("--iters", type=int, default=40)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--block-size", type=int, default=16)
    p.add_argument("--solver-feas", type=float, default=1e-3)
    p.add_argument("--solver-obj", type=float, default=1e-4)
    p.add_argument("--solver-iters", type=int, default=2000)
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
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
