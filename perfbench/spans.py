"""Spans around the public entry points of pcs, and the per-layer metrics.

A Tracer replaces module attributes (and methods of two classes) with wrappers
that record one span per call: name, start, end, parent span and operation
id, plus a few sizes read from the arguments or the result.  Spans stay in
memory while an operation runs; the benchmark takes them between
operations, outside the timed region, so memory stays bounded by one
operation.  A span's self time is its duration minus the part of it covered
by its child spans.
"""

import functools
import gzip
import json
import os
import time

import numpy as np

# (module, class or None, attribute) of every wrapped entry point
TRACED = [
    ("cli", None, "main"),
    ("sensing", None, "draw_sensing_stack"),
    ("sensing", None, "draw_sensing_matrix"),
    ("sensing", None, "acquire_rows_2d"),
    ("sensing", None, "acquire_bands_3d"),
    ("sensing", None, "load_measurements"),
    ("sensing", None, "save_measurements"),
    ("sensing", "BlockDiagOperator", "matvec"),
    ("sensing", "BlockDiagOperator", "rmatvec"),
    ("solvers", None, "solve_l1_batch"),
    ("solvers", None, "solve_l1"),
    ("solvers", "BatchedOperator", "forward"),
    ("solvers", "BatchedOperator", "adjoint"),
    ("transforms", None, "synthesize"),
    ("transforms", None, "analyze"),
    ("predictors", None, "predict_row"),
    ("predictors", None, "predict_band_twosided"),
    ("recon", None, "init_separate"),
    ("recon", None, "init_kcs"),
    ("recon", None, "reconstruct_2d"),
    ("recon", None, "reconstruct_3d"),
    ("metrics", None, "mse"),
    ("metrics", None, "row_compressibility"),
    ("dataio", None, "load_image"),
    ("dataio", None, "save_image"),
    ("dataio", None, "load_cube"),
    ("dataio", None, "save_cube"),
]

# the untraced run keeps the initial reconstruction (and its end time) and the
# reconstruction report, one call each per operation
UNTRACED = [e for e in TRACED if e[0] == "recon"]

_INITS = ("recon.init_separate", "recon.init_kcs")
_SOLVES = ("solvers.solve_l1_batch", "solvers.solve_l1")
_APPLIES = ("solvers.BatchedOperator.forward", "solvers.BatchedOperator.adjoint",
            "sensing.BlockDiagOperator.matvec", "sensing.BlockDiagOperator.rmatvec")
_BLOCKDIAG = _APPLIES[2:]
_DRAWS = ("sensing.draw_sensing_stack", "sensing.draw_sensing_matrix")
_DCTS = ("transforms.synthesize", "transforms.analyze")
_PREDICTS = ("predictors.predict_row", "predictors.predict_band_twosided")
_RECONS = ("recon.reconstruct_2d", "recon.reconstruct_3d")
_TRACE_METRICS = ("metrics.mse", "metrics.row_compressibility")
_IO = ("sensing.load_measurements", "sensing.save_measurements", "dataio.load_image",
       "dataio.save_image", "dataio.load_cube", "dataio.save_cube")

# per-layer metric -> unit, in the order they are reported
LAYER_UNITS = {
    "sensing.draw_s": "s", "sensing.draw_mb": "MB", "sensing.acquire_s": "s",
    "sensing.blockdiag_s": "s", "sensing.blockdiag_applies": "count",
    "solvers.solve_s": "s", "solvers.self_s": "s", "solvers.apply_s": "s",
    "solvers.applies": "count", "solvers.apply_mb": "MB", "solvers.apply_gbps": "GB/s",
    "solvers.iters_p50": "iterations", "solvers.iters_p90": "iterations",
    "solvers.iters_max": "iterations", "solvers.sweep_iters_p50": "iterations",
    "solvers.slice_solves": "count", "solvers.unconverged": "count",
    "solvers.converged_ratio": "1",
    "transforms.dct_s": "s", "transforms.dct_calls": "count", "transforms.dct_mcoeffs": "M",
    "predictors.predict_s": "s", "predictors.calls": "count",
    "recon.init_s": "s", "recon.outer_s": "s", "recon.outer_iters": "count",
    "metrics.trace_s": "s", "dataio.io_s": "s", "dataio.io_mb": "MB",
    "cli.self_s": "s", "cli.acquire_s": "s", "cli.reconstruct_s": "s",
}


def _file_mb(path) -> float:
    return os.path.getsize(path) / 1e6


def _sizes(name, args, result) -> dict:
    """Work figures of one call, read from its arguments and result."""
    if name == "sensing.draw_sensing_matrix":
        return {"mb": result.nbytes / 1e6}
    if name in ("solvers.BatchedOperator.forward", "solvers.BatchedOperator.adjoint"):
        return {"mb": args[0].phi.nbytes / 1e6}
    if name in _BLOCKDIAG:
        ens = args[0].ensemble
        return {"mb": ens.num_slices * ens.m * ens.n * 8 / 1e6}
    if name in _DCTS:
        return {"mcoeffs": np.size(args[1]) / 1e6}
    if name == "solvers.solve_l1_batch":
        return {"iters": result.iterations.tolist(), "converged": result.converged.tolist()}
    if name == "solvers.solve_l1":
        return {"iters": [result.iterations], "converged": [result.converged]}
    if name in _RECONS:
        return {"outer_iters": result[1].iterations_run}
    if name in ("sensing.load_measurements", "dataio.load_image", "dataio.load_cube"):
        return {"mb": _file_mb(args[0])}
    if name in ("sensing.save_measurements", "dataio.save_image", "dataio.save_cube"):
        return {"mb": _file_mb(args[1])}
    if name == "cli.main":
        return {"command": args[0][0] if args and args[0] else None}
    return {}


class Tracer:
    """Records spans around the entries of `targets` while installed.

    The last result of every traced call is kept in `results` so a workload
    can inspect the in-memory initial reconstruction and the report.
    """

    def __init__(self, pcs_modules: dict, targets=TRACED):
        self.spans: list[dict] = []
        self.results: dict = {}
        self._next_id = 0
        self.op = None
        self._modules = pcs_modules
        self._targets = targets
        self._stack: list[int] = []
        self._saved: list = []

    def install(self) -> None:
        for mod_name, cls_name, attr in self._targets:
            owner = self._modules[mod_name]
            if cls_name is not None:
                owner = getattr(owner, cls_name)
            name = ".".join(p for p in (mod_name, cls_name, attr) if p)
            had_own = attr in vars(owner)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original if had_own else None))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": self._next_id, "name": name, "op": self.op,
                    "parent": self._stack[-1] if self._stack else None}
            self._next_id += 1
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            self.results[name] = result
            span.update(_sizes(name, args, result))
            return result

        return wrapper

    def take(self) -> list[dict]:
        """Hand over the spans recorded so far and forget them."""
        spans, self.spans = self.spans, []
        return spans


def append_spans(path, spans: list[dict]) -> None:
    """Append spans as gzip-compressed JSON lines (one gzip member per call)."""
    with gzip.open(path, "at", compresslevel=1) as fh:
        for span in spans:
            fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def self_times(spans: list[dict]) -> dict:
    """span id -> duration minus the union of its children's intervals."""
    children: dict = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children.get(s["id"], [])):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def _has_ancestor(span, by_id, names) -> bool:
    parent = span["parent"]
    while parent is not None:
        if by_id[parent]["name"] in names:
            return True
        parent = by_id[parent]["parent"]
    return False


def op_layer_metrics(spans: list[dict]) -> dict:
    """Per-layer metrics of one operation, from its spans."""
    by_id = {s["id"]: s for s in spans}
    own = self_times(spans)

    def pick(names):
        return [s for s in spans if s["name"] in names]

    def outer_time(names):
        return sum(s["end"] - s["start"] for s in pick(names)
                   if not _has_ancestor(s, by_id, names))

    solves = pick(_SOLVES)
    iters = [i for s in solves for i in s["iters"]]
    converged = [c for s in solves for c in s["converged"]]
    sweep_iters = [i for s in solves if not _has_ancestor(s, by_id, _INITS) for i in s["iters"]]
    applies = pick(_APPLIES)
    apply_s = sum(own[s["id"]] for s in applies)
    apply_mb = sum(s["mb"] for s in applies)
    init_s = outer_time(_INITS)
    cli_spans = pick(("cli.main",))

    def command_s(command):
        return sum(s["end"] - s["start"] for s in cli_spans if s.get("command") == command)

    def pct(values, q):
        return float(np.percentile(values, q)) if values else 0.0

    return {
        "sensing.draw_s": outer_time(_DRAWS),
        "sensing.draw_mb": sum(s["mb"] for s in pick(("sensing.draw_sensing_matrix",))),
        "sensing.acquire_s": outer_time(("sensing.acquire_rows_2d", "sensing.acquire_bands_3d")),
        "sensing.blockdiag_s": outer_time(_BLOCKDIAG),
        "sensing.blockdiag_applies": len(pick(_BLOCKDIAG)),
        "solvers.solve_s": outer_time(_SOLVES),
        "solvers.self_s": sum(own[s["id"]] for s in solves),
        "solvers.apply_s": apply_s,
        "solvers.applies": len(applies),
        "solvers.apply_mb": apply_mb,
        "solvers.apply_gbps": apply_mb / 1e3 / apply_s if apply_s > 0 else 0.0,
        "solvers.iters_p50": pct(iters, 50),
        "solvers.iters_p90": pct(iters, 90),
        "solvers.iters_max": float(max(iters, default=0)),
        "solvers.sweep_iters_p50": pct(sweep_iters, 50),
        "solvers.slice_solves": len(iters),
        "solvers.unconverged": converged.count(False),
        "solvers.converged_ratio": converged.count(True) / len(converged) if converged else 0.0,
        "transforms.dct_s": outer_time(_DCTS),
        "transforms.dct_calls": len(pick(_DCTS)),
        "transforms.dct_mcoeffs": sum(s["mcoeffs"] for s in pick(_DCTS)),
        "predictors.predict_s": outer_time(_PREDICTS),
        "predictors.calls": len(pick(_PREDICTS)),
        "recon.init_s": init_s,
        "recon.outer_s": outer_time(_RECONS) - init_s,
        "recon.outer_iters": sum(s["outer_iters"] for s in pick(_RECONS)),
        "metrics.trace_s": outer_time(_TRACE_METRICS),
        "dataio.io_s": outer_time(_IO),
        "dataio.io_mb": sum(s["mb"] for s in pick(_IO)),
        "cli.self_s": sum(own[s["id"]] for s in cli_spans),
        "cli.acquire_s": command_s("acquire"),
        "cli.reconstruct_s": command_s("reconstruct"),
    }


def median_layer_metrics(per_op: list[dict]) -> dict:
    """Median over operations of each per-layer metric."""
    return {name: float(np.median([m[name] for m in per_op])) for name in LAYER_UNITS}
