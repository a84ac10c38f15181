"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import gzip
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

# At these sizes a few slice solves stop at the default 2000-iteration cap
# short of the feasibility bound, which the consistency check then reports;
# a higher cap lets the tiny runs exercise the plumbing.
TINY_RECON = {
    "rows2d-separate-p3": {
        "seeded": 2,
        "synth": ["image", "--rows", "32", "--cols", "32"],
        "acquire": ["--layout", "rows2d", "-m", "8"],
        "reconstruct": ["--init", "separate", "--filter", "p3", "--iters", "1",
                        "--solver-iters", "8000"],
    },
    "bands3d-kcs-blockls": {
        "seeded": 2,
        "synth": ["cube", "--rows", "16", "--cols", "16", "--bands", "4"],
        "acquire": ["--layout", "bands3d", "-m", "64"],
        "reconstruct": ["--init", "kcs", "--filter", "blockls", "--iters", "1",
                        "--solver-iters", "8000"],
    },
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "RECON_WORKLOADS", TINY_RECON)
    monkeypatch.setattr(run, "PLANTED", {**run.PLANTED, "count": 20, "seeded": 2})
    # the set-up probes would start fresh processes at the full sizes
    monkeypatch.setattr(run, "probe_setup_s", lambda name, seed: 1.0)
    return tmp_path


@pytest.mark.parametrize("name", run.WORKLOADS)
@pytest.mark.parametrize("traced", [False, True])
def test_workload_passes_its_checks_at_tiny_size(tiny, name, traced):
    report = run.run_workload(name, seed=3, seconds=0, traced=traced)
    result = report["result"]
    assert result["attempted"] == 3
    assert result["failed"] == 0, report["failures"]
    assert result["correct"]
    units = spans.LAYER_UNITS if traced else run.END_TO_END_UNITS
    assert set(result["metrics"]) == set(units)
    if not traced:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        with gzip.open(tiny / f"spans-{name}-seed3.jsonl.gz", "rt") as fh:
            first = json.loads(fh.readline())
        assert {"id", "name", "start", "end", "parent", "op"} <= set(first)
        assert result["metrics"]["solvers.slice_solves"]["value"] > 0


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_inputs_follow_the_seed(name):
    five, six = run.input_seeds(name, 5), run.input_seeds(name, 6)
    assert five == run.input_seeds(name, 5)
    assert five[0] == six[0] == run.REFERENCE_SEED
    assert set(five[1:]).isdisjoint(six[1:])
    assert len(set(five)) == len(five)


def test_self_time_subtracts_children_once():
    tree = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "parent": 1, "start": 2.0, "end": 3.0},
        {"id": 3, "parent": 0, "start": 5.0, "end": 6.5},
        {"id": 4, "parent": 3, "start": 5.0, "end": 6.5},
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({0: 5.5, 1: 2.0, 2: 1.0, 3: 0.0, 4: 1.5})


def test_layer_metrics_of_a_hand_built_operation():
    def span(i, name, parent, start, end, **extra):
        return {"id": i, "name": name, "parent": parent, "op": 0, "start": start, "end": end,
                **extra}

    tree = [
        span(0, "recon.reconstruct_2d", None, 0.0, 10.0, outer_iters=2),
        span(1, "recon.init_separate", 0, 0.0, 4.0),
        span(2, "solvers.solve_l1_batch", 1, 0.5, 3.5, iters=[10, 30], converged=[True, False]),
        span(3, "solvers.BatchedOperator.forward", 2, 1.0, 2.0, mb=4.0),
        span(4, "transforms.synthesize", 3, 1.0, 1.25, mcoeffs=0.5),
        span(5, "solvers.solve_l1_batch", 0, 5.0, 9.0, iters=[20], converged=[True]),
    ]
    m = spans.op_layer_metrics(tree)
    assert m["recon.init_s"] == 4.0
    assert m["recon.outer_s"] == 6.0
    assert m["solvers.solve_s"] == 7.0
    assert m["solvers.self_s"] == pytest.approx(2.0 + 4.0)
    assert m["solvers.apply_s"] == pytest.approx(0.75)
    assert m["solvers.apply_gbps"] == pytest.approx(4.0 / 1e3 / 0.75)
    assert m["transforms.dct_s"] == 0.25
    assert m["solvers.slice_solves"] == 3
    assert m["solvers.unconverged"] == 1
    assert m["solvers.iters_max"] == 30
    assert m["solvers.sweep_iters_p50"] == 20


def test_independent_phi_matches_pcs():
    pcs = run.import_pcs()
    for seed, i, m, n in [(0, 0, 4, 16), (7, 3, 8, 32), (2**64 + 5, 1, 16, 64), (123456789, 9, 3, 5)]:
        ens = pcs["sensing"].SeededSensingEnsemble(seed, i + 1, m, n)
        np.testing.assert_array_equal(oracle.phi(seed, i, m, n),
                                      pcs["sensing"].draw_sensing_matrix(ens, i))


def test_corrupted_reconstruction_counts_as_failed(tiny):
    def corrupt(path):
        data = path.read_bytes()
        samples = np.frombuffer(data, dtype="<f8", offset=32) * 1.05
        path.write_bytes(data[:32] + samples.astype("<f8").tobytes())

    report = run.run_workload("rows2d-separate-p3", seed=3, seconds=0, traced=False,
                              corrupt=corrupt)
    result = report["result"]
    assert result["attempted"] == 3
    assert result["failed"] == result["attempted"]
    assert not result["correct"]
    assert all("measurement consistency" in line for line in report["failures"])


def test_tracer_restores_what_it_wrapped():
    pcs = run.import_pcs()
    before = {(mod, cls, attr): vars(getattr(pcs[mod], cls) if cls else pcs[mod]).get(attr)
              for mod, cls, attr in spans.TRACED}
    tracer = spans.Tracer(pcs)
    tracer.install()
    tracer.uninstall()
    after = {(mod, cls, attr): vars(getattr(pcs[mod], cls) if cls else pcs[mod]).get(attr)
             for mod, cls, attr in spans.TRACED}
    assert before == after
