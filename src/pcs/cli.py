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

def cmd_acquire(args) -> int:
    layout = _LAYOUT_NAMES[args.layout]
    signal = _load_signal(args.input)
    if layout == Layout.ROWS_2D:
        if isinstance(signal, Cube3D):
            if signal.n_bands != 1:
                return _fail("rows2d layout needs a 2D image (or a 1-band cube)")
            signal = Image2D(signal.samples[:, :, 0])
        num_slices, n = signal.n_rows, signal.n_cols
    else:
        if isinstance(signal, Image2D):
            return _fail(f"{args.layout} layout needs a 3D cube input")
        if layout == Layout.BANDS_3D:
            num_slices, n = signal.n_bands, signal.n_rows * signal.n_cols
        else:
            num_slices, n = signal.n_rows, signal.n_cols * signal.n_bands
    if args.m >= n and not args.non_compressive:
        return _fail(f"m={args.m} >= slice length {n}; pass --non-compressive for the reference mode")
    ensemble = sensing.SeededSensingEnsemble(
        master_seed=args.seed,
        num_slices=num_slices,
        m=args.m,
        n=n,
        shared_matrix=args.shared_matrix,
        non_compressive=args.non_compressive,
    )
    if layout == Layout.ROWS_2D:
        ms = sensing.acquire_rows_2d(signal, ensemble)
    elif layout == Layout.BANDS_3D:
        ms = sensing.acquire_bands_3d(signal, ensemble)
    else:
        ms = sensing.acquire_spectral_rows_3d(signal, ensemble)
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

def _recon_config(args, layout) -> ReconConfig:
    if args.filter == "blockls":
        if layout != Layout.BANDS_3D:
            raise ValueError("blockls filter only applies to bands3d measurements")
        flt = BlockLSPredictorConfig(block_size=args.block_size)
    else:
        if layout == Layout.BANDS_3D:
            raise ValueError("bands3d measurements need the blockls filter")
        flt = _FILTERS[args.filter]
    solver = SolveConfig(
        feasibility_tol=args.solver_feas,
        objective_tol=args.solver_obj,
        max_solver_iters=args.solver_iters,
    )
    return ReconConfig(
        init=args.init,
        filter=flt,
        max_outer_iters=args.iters,
        convergence_tol=args.tol,
        solver=solver,
        iterate_axis=recon.AXIS_BANDS if layout == Layout.BANDS_3D else recon.AXIS_SPECTRAL_ROWS,
    )


def cmd_reconstruct(args) -> int:
    ms = sensing.load_measurements(args.input)
    try:
        cfg = _recon_config(args, ms.layout)
    except ValueError as exc:
        return _fail(str(exc))
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
    if ms.layout == Layout.ROWS_2D:
        result, report = recon.reconstruct_2d(ms, basis, cfg, ground_truth=truth)
        cube = Cube3D(result.samples[:, :, None])
    else:
        result, report = recon.reconstruct_3d(ms, basis, cfg, ground_truth=truth)
        cube = result
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


def _run_benchmark_cell(cell: dict) -> dict:
    """One grid cell: synth, acquire, reconstruct; returns plain rows."""
    scenario = cell["scenario"]
    seed = cell["seed"]
    m = cell["m"]
    solver = SolveConfig(
        feasibility_tol=cell["solver_feas"],
        objective_tol=cell["solver_obj"],
        max_solver_iters=cell["solver_iters"],
    )
    if scenario == "2d":
        img = dataio.synth_image(seed, cell["rows"], cell["cols"])
        ens = sensing.SeededSensingEnsemble(seed, cell["rows"], m, cell["cols"])
        ms = sensing.acquire_rows_2d(img, ens)
        cfg = ReconConfig(
            init=cell["init"],
            filter=_FILTERS[cell["filter"]],
            max_outer_iters=cell["iters"],
            convergence_tol=cell["tol"],
            solver=solver,
        )
        basis = recon.slice_basis_for(ms, kind=cell["basis"])
        result, report = recon.reconstruct_2d(ms, basis, cfg, ground_truth=img)
        truth = img.samples
        band_mse = []
    else:
        cube = dataio.synth_cube(seed, cell["rows"], cell["cols"], cell["bands"])
        if scenario == "3d":
            ens = sensing.SeededSensingEnsemble(seed, cell["bands"], m, cell["rows"] * cell["cols"])
            ms = sensing.acquire_bands_3d(cube, ens)
            flt = BlockLSPredictorConfig(block_size=cell["block_size"])
            axis = recon.AXIS_BANDS
        else:  # 3d_rows
            ens = sensing.SeededSensingEnsemble(seed, cell["rows"], m, cell["cols"] * cell["bands"])
            ms = sensing.acquire_spectral_rows_3d(cube, ens)
            flt = _FILTERS[cell["filter"] if cell["filter"] != "blockls" else "p1"]
            axis = recon.AXIS_SPECTRAL_ROWS
        cfg = ReconConfig(
            init=cell["init"],
            filter=flt,
            max_outer_iters=cell["iters"],
            convergence_tol=cell["tol"],
            solver=solver,
            iterate_axis=axis,
        )
        basis = recon.slice_basis_for(ms, kind=cell["basis"])
        result, report = recon.reconstruct_3d(ms, basis, cfg, ground_truth=cube)
        truth = cube.samples
        band_mse = [
            metrics.mse(result.samples[:, :, b], cube.samples[:, :, b])
            for b in range(cell["bands"])
        ]
    key = {
        "scenario": scenario,
        "m": m,
        "init": cell["init"],
        "filter": cell["filter"],
        "seed": seed,
    }
    recon_samples = result.samples
    return {
        "key": key,
        "mse_trace": report.mse_trace,
        "rel_trace": report.rel_change_trace,
        "compress_trace": report.compressibility_trace,
        "iterations": report.iterations_run,
        "converged": report.converged,
        "band_mse": band_mse,
        "recon": recon_samples,
    }


def _run_omp_cell(cell: dict) -> dict:
    """Whole-signal OMP baseline with the same total measurement budget."""
    scenario = cell["scenario"]
    seed = cell["seed"]
    if scenario == "2d":
        img = dataio.synth_image(seed, cell["rows"], cell["cols"])
        truth = img.samples
        dims = (cell["rows"], cell["cols"])
    else:
        cube = dataio.synth_cube(seed, cell["rows"], cell["cols"], cell["bands"])
        truth = cube.samples
        dims = (cell["rows"], cell["cols"], cell["bands"])
    n = int(np.prod(dims))
    m_total = cell["m"] * (cell["rows"] if scenario != "3d" else cell["bands"])
    ens = sensing.SeededSensingEnsemble(seed, 1, m_total, n)
    phi = sensing.draw_sensing_matrix(ens, 0)
    flat = truth.ravel(order="F")
    y = phi @ flat
    if scenario == "2d":
        basis = transforms.separable2d_basis(*dims)
    else:
        basis = transforms.separable3d_basis(*dims)
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
