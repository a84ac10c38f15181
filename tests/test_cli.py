import hashlib
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from pcs import cli, dataio, metrics, recon, sensing
from pcs.cli import main, parse_suite
from pcs.signals import Cube3D, Image2D


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _synth_image(workdir, name="img.pgm", rows=24, cols=24, seed=3):
    assert main(["synth", "image", "--seed", str(seed), "--rows", str(rows),
                 "--cols", str(cols), "-o", name]) == 0
    return workdir / name


def _synth_cube(workdir, name="cube.pcs3", rows=8, cols=8, bands=4, seed=5):
    assert main(["synth", "cube", "--seed", str(seed), "--rows", str(rows),
                 "--cols", str(cols), "--bands", str(bands), "-o", name]) == 0
    return workdir / name


class TestSynth:
    def test_image_and_manifest(self, workdir):
        path = _synth_image(workdir)
        img = dataio.load_image(path)
        assert img.samples.shape == (24, 24)
        manifest = json.loads((workdir / "img.pgm.manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["master_seed"] == 3

    def test_deterministic_output(self, workdir):
        a = _synth_image(workdir, "a.pgm")
        b = _synth_image(workdir, "b.pgm")
        assert a.read_bytes() == b.read_bytes()

    def test_cube(self, workdir):
        path = _synth_cube(workdir)
        cube = dataio.load_cube(path)
        assert cube.samples.shape == (8, 8, 4)

    def test_pgm_suffix_in_any_case(self, workdir):
        path = _synth_image(workdir, "img.PGM")
        assert path.read_bytes()[:2] == b"P5"
        assert dataio.load_image(path).samples.shape == (24, 24)


class TestAcquire:
    def test_shapes_and_ratio(self, workdir, capsys):
        img = _synth_image(workdir, rows=32, cols=32)
        assert main(["acquire", str(img), "-m", "8", "--seed", "7", "-o", "m.pcsm"]) == 0
        out = capsys.readouterr().out
        assert "32 slices x 8 measurements" in out
        assert "4.00x" in out
        ms = sensing.load_measurements(workdir / "m.pcsm")
        assert ms.y.shape == (32, 8)

    def test_refuses_non_compressive_without_flag(self, workdir, capsys):
        img = _synth_image(workdir)
        assert main(["acquire", str(img), "-m", "24", "-o", "m.pcsm"]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["acquire", str(img), "-m", "24", "--non-compressive", "-o", "m.pcsm"]) == 0

    def test_same_seed_byte_identical(self, workdir):
        img = _synth_image(workdir)
        main(["acquire", str(img), "-m", "6", "--seed", "11", "-o", "a.pcsm"])
        main(["acquire", str(img), "-m", "6", "--seed", "11", "-o", "b.pcsm"])
        assert (workdir / "a.pcsm").read_bytes() == (workdir / "b.pcsm").read_bytes()

    def test_signal_over_the_matrix_budget_refused_before_any_draw(self, workdir, monkeypatch, capsys):
        # the 32x32 image claims 8192 bytes: acquire refuses what the loader would
        img = _synth_image(workdir, rows=32, cols=32)
        monkeypatch.setattr(sensing, "MATRIX_BUDGET_BYTES", 4096)
        draws = []
        monkeypatch.setattr(sensing, "draw_sensing_matrix", lambda *a: draws.append(a))
        assert main(["acquire", str(img), "-m", "8", "-o", "m.pcsm"]) == 2
        assert "claims the signal of 8192 bytes" in capsys.readouterr().err
        assert draws == [] and not (workdir / "m.pcsm").exists()

    @pytest.mark.parametrize("content,refusal", [
        (b"rows = 8\n", "neither a P5 PGM nor a PCS3 cube file"),
        (b"abc", "neither a P5 PGM nor a PCS3 cube file"),
        (b"P5\n2 2\n100\n" + bytes([0, 50, 200, 255]), "sample 255 exceeds maxval 100"),
    ])
    def test_unreadable_input_refused(self, workdir, capsys, content, refusal):
        Path("x.in").write_bytes(content)
        assert main(["acquire", "x.in", "-m", "1", "-o", "m.pcsm"]) == 2
        assert capsys.readouterr().err == f"error: x.in: {refusal}\n"
        assert not (workdir / "m.pcsm").exists()

    def test_layout_needs_cube(self, workdir, capsys):
        img = _synth_image(workdir)
        assert main(["acquire", str(img), "--layout", "bands3d", "-m", "8", "-o", "m.pcsm"]) == 2
        assert "error: layout BANDS_3D cannot slice a signal of shape (24, 24)" in capsys.readouterr().err
        cube = _synth_cube(workdir)
        assert main(["acquire", str(cube), "--layout", "rows2d", "-m", "4", "-o", "m.pcsm"]) == 2
        assert "error: layout ROWS_2D cannot slice a signal of shape (8, 8, 4)" in capsys.readouterr().err


class TestReconstruct:
    def test_2d_round_trip_with_truth(self, workdir):
        img = _synth_image(workdir, rows=24, cols=24)
        main(["acquire", str(img), "-m", "8", "--seed", "1", "-o", "m.pcsm"])
        assert main(["reconstruct", "m.pcsm", "--iters", "2", "--truth", str(img),
                     "-o", "rec"]) == 0
        lines = (workdir / "rec.report.csv").read_text().splitlines()
        assert lines[0].startswith("# manifest=")
        assert lines[1] == "iteration,mse,relative_change,elapsed_seconds"
        assert len(lines) >= 4
        # row 0 is the initialization: its MSE, no relative change, seconds
        init, _ = recon.init_separate(sensing.load_measurements(workdir / "m.pcsm"))
        mse0 = metrics.mse(init, dataio.load_image(img))
        assert re.fullmatch(rf"0,{re.escape(repr(mse0))},,\d+\.\d{{3}}", lines[2])
        cube = dataio.load_cube(workdir / "rec.pcs3")
        assert cube.samples.shape == (24, 24, 1)

    def test_filter_layout_mismatch_refused(self, workdir, capsys):
        img = _synth_image(workdir)
        main(["acquire", str(img), "-m", "8", "-o", "m.pcsm"])
        assert main(["reconstruct", "m.pcsm", "--filter", "blockls", "-o", "rec"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_3d_blockls_and_kcs(self, workdir):
        cube = _synth_cube(workdir)
        main(["acquire", str(cube), "--layout", "bands3d", "-m", "16", "-o", "c.pcsm"])
        assert main(["reconstruct", "c.pcsm", "--filter", "blockls", "--iters", "2",
                     "--init", "kcs", "--truth", str(cube), "-o", "crec"]) == 0
        rec = dataio.load_cube(workdir / "crec.pcs3")
        assert rec.samples.shape == (8, 8, 4)

    def test_3d_requires_blockls(self, workdir, capsys):
        cube = _synth_cube(workdir)
        main(["acquire", str(cube), "--layout", "bands3d", "-m", "16", "-o", "c.pcsm"])
        assert main(["reconstruct", "c.pcsm", "--filter", "p1", "-o", "rec"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_tolerances_refused(self, workdir, capsys, value):
        img = _synth_image(workdir, rows=16, cols=16)
        main(["acquire", str(img), "-m", "4", "-o", "m.pcsm"])
        for flag in ("--tol", "--solver-feas", "--solver-obj"):
            assert main(["reconstruct", "m.pcsm", f"{flag}={value}", "--iters", "3", "-o", "rec"]) == 2
            assert "must be finite and > 0" in capsys.readouterr().err
        assert not (workdir / "rec.pcs3").exists()

    def test_truth_shape_mismatch(self, workdir, capsys):
        img = _synth_image(workdir, rows=24, cols=24)
        other = _synth_image(workdir, name="other.pgm", rows=16, cols=24, seed=9)
        main(["acquire", str(img), "-m", "8", "-o", "m.pcsm"])
        assert main(["reconstruct", "m.pcsm", "--truth", str(other), "-o", "rec"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_kcs_stack_over_the_matrix_budget_refused(self, workdir, monkeypatch, capsys):
        # a budget of the 24x24 signal's bytes holds 3 of the 24 8 x 24 matrices
        img = _synth_image(workdir, rows=24, cols=24)
        main(["acquire", str(img), "-m", "8", "-o", "m.pcsm"])
        monkeypatch.setattr(sensing, "MATRIX_BUDGET_BYTES", 24 * 24 * 8)
        assert main(["reconstruct", "m.pcsm", "--init", "kcs", "-o", "rec"]) == 2
        assert "error: a stack of 24 8 x 24 matrices exceeds 4608 bytes" in capsys.readouterr().err
        assert not (workdir / "rec.pcs3").exists()

    def test_missing_input(self, workdir, capsys):
        assert main(["reconstruct", "nope.pcsm", "-o", "rec"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unconverged_solves_named_per_stage(self, workdir, capsys):
        img = _synth_image(workdir, rows=24, cols=24)
        main(["acquire", str(img), "-m", "8", "--seed", "1", "-o", "m.pcsm"])
        capsys.readouterr()
        # 25 iterations are too few for any row: 24 init solves, 22 per sweep
        assert main(["reconstruct", "m.pcsm", "--iters", "2", "--solver-iters", "25", "-o", "rec"]) == 0
        note = capsys.readouterr().out.splitlines()[-1]
        assert note == (
            "note: 68 slice solves did not converge (best iterates kept): "
            "init: rows 0, 1, 2, 3, 4, 5, 6, 7, 8, 9 and 14 more; "
            "sweep 1: rows 1, 2, 3, 4, 5, 6, 7, 8, 9, 10 and 12 more; "
            "sweep 2: rows 1, 2, 3, 4, 5, 6, 7, 8, 9, 10 and 12 more"
        )

    @pytest.mark.parametrize("layout, m, flags, entry_points, shape", [
        ("rows2d", 3, ["--filter", "p1"], ["acquire_rows_2d", "reconstruct_2d"], (6, 4, 1)),
        ("bands3d", 12, ["--filter", "blockls", "--block-size", "2"],
         ["acquire_bands_3d", "reconstruct_3d"], (6, 4, 3)),
        ("spectralrows3d", 6, ["--filter", "p1"], ["acquire_spectral_rows_3d", "reconstruct_3d"], (6, 4, 3)),
    ], ids=["rows2d", "bands3d", "spectralrows3d"])
    def test_each_layout_through_module_attributes(self, workdir, monkeypatch, layout, m, flags,
                                                   entry_points, shape):
        # the benchmark wraps entry points by replacing module attributes, so
        # the CLI must look each one up at call time, and each layout must
        # reach its own
        signal = (_synth_image(workdir, rows=6, cols=4) if layout == "rows2d"
                  else _synth_cube(workdir, rows=6, cols=4, bands=3))
        calls = []
        for module, name in ((sensing, entry_points[0]), (recon, entry_points[1])):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, fn=fn, name=name, **k: calls.append(name) or fn(*a, **k))
        assert main(["acquire", str(signal), "--layout", layout, "-m", str(m), "-o", "s.pcsm"]) == 0
        assert main(["reconstruct", "s.pcsm", *flags, "--iters", "1", "-o", "srec"]) == 0
        assert calls == entry_points
        assert dataio.load_cube(workdir / "srec.pcs3").samples.shape == shape

    @pytest.mark.parametrize("layout", ["rows2d", "spectralrows3d"])
    def test_slices_one_sample_long(self, workdir, layout):
        # a one-column image, or a cube of 1 x 1 spectral rows: each slice is
        # one sample, which its one measurement determines
        if layout == "rows2d":
            dataio.save_image(Image2D(np.arange(0.0, 240.0, 30.0).reshape(8, 1)), "one.pgm")
            signal = "one.pgm"
        else:
            dataio.save_cube(Cube3D(np.linspace(0.0, 1.0, 8).reshape(8, 1, 1)), "one.pcs3")
            signal = "one.pcs3"
        assert main(["acquire", signal, "--layout", layout, "-m", "1", "--non-compressive", "-o", "s.pcsm"]) == 0
        assert main(["reconstruct", "s.pcsm", "--iters", "3", "--truth", signal, "-o", "srec"]) == 0
        final_mse = float((workdir / "srec.report.csv").read_text().splitlines()[-1].split(",")[1])
        assert final_mse < 1e-28

    def test_unconverged_list_format(self):
        assert cli._unconverged_list([(0, 0), (1, 17), (1, 45)], sensing.Layout.ROWS_2D) == \
            "init: rows 0; sweep 1: rows 17, 45"
        assert cli._unconverged_list([(0, -1), (2, 3)], sensing.Layout.BANDS_3D) == \
            "init: joint solve; sweep 2: bands 3"


SUITE = """
# tiny grid
scenario = 2d
rows = 16
cols = 16
m = 4,8
seeds = 0
init = separate
filter = p3
iters = 2
"""


class TestBenchmark:
    def test_csv_outputs(self, workdir):
        Path("suite.txt").write_text(SUITE)
        assert main(["benchmark", "--suite", "suite.txt", "--out", "bench"]) == 0
        for name in ("mse_vs_iter.csv", "mse_vs_m.csv", "mse_per_band.csv",
                     "compressibility_vs_iter.csv"):
            lines = (workdir / "bench" / name).read_text().splitlines()
            assert lines[0].startswith("# manifest=")
            assert "," in lines[1]
        rows = (workdir / "bench" / "mse_vs_m.csv").read_text().splitlines()
        assert len(rows) == 2 + 2  # manifest + header + one row per m

    def test_empty_grid_gives_headers_only(self, workdir):
        Path("suite.txt").write_text(SUITE.replace("m = 4,8", "m = "))
        assert main(["benchmark", "--suite", "suite.txt", "--out", "bench"]) == 0
        lines = (workdir / "bench" / "mse_vs_m.csv").read_text().splitlines()
        assert len(lines) == 2

    def test_byte_identical_between_runs(self, tmp_path, monkeypatch):
        results = []
        for sub in ("run1", "run2"):
            d = tmp_path / sub
            d.mkdir()
            monkeypatch.chdir(d)
            Path("suite.txt").write_text(SUITE)
            assert main(["benchmark", "--suite", "suite.txt", "--out", "bench"]) == 0
            results.append({
                name: (d / "bench" / name).read_bytes()
                for name in ("mse_vs_iter.csv", "mse_vs_m.csv", "mse_per_band.csv",
                             "compressibility_vs_iter.csv")
            })
        assert results[0] == results[1]

    def test_parallel_jobs_match_serial(self, workdir):
        Path("suite.txt").write_text(SUITE)
        assert main(["benchmark", "--suite", "suite.txt", "--out", "serial", "--jobs", "1"]) == 0
        assert main(["benchmark", "--suite", "suite.txt", "--out", "par", "--jobs", "2"]) == 0
        serial = (workdir / "serial" / "mse_vs_iter.csv").read_text().splitlines()[1:]
        par = (workdir / "par" / "mse_vs_iter.csv").read_text().splitlines()[1:]
        assert serial == par

    def test_pool_bounded_by_the_cell_count(self, workdir, monkeypatch):
        # a process pool forks all its workers at the first submit, so the
        # pool gets at most one worker per cell, whatever --jobs asks for;
        # the stand-in pool records its size and runs each cell inline
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                fut = Future()
                fut.set_result(fn(*args))
                return fut

        Path("suite.txt").write_text(SUITE)
        assert main(["benchmark", "--suite", "suite.txt", "--out", "serial", "--jobs", "1"]) == 0
        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
        assert main(["benchmark", "--suite", "suite.txt", "--out", "pool", "--jobs", "64"]) == 0
        assert sizes == [2]
        for name in cli._CSV_NAMES:
            serial = (workdir / "serial" / name).read_text().splitlines()[1:]
            assert (workdir / "pool" / name).read_text().splitlines()[1:] == serial

    def test_omp_cells(self, workdir):
        Path("suite.txt").write_text(SUITE + "include_omp = true\n")
        assert main(["benchmark", "--suite", "suite.txt", "--out", "bench"]) == 0
        content = (workdir / "bench" / "mse_vs_m.csv").read_text()
        assert ",omp," in content

    def test_3d_scenario_band_mse(self, workdir):
        Path("suite.txt").write_text(
            "scenario = 3d\nrows = 8\ncols = 8\nbands = 4\nm = 16\nseeds = 0\n"
            "filter = blockls\niters = 2\n"
        )
        assert main(["benchmark", "--suite", "suite.txt", "--out", "bench"]) == 0
        lines = (workdir / "bench" / "mse_per_band.csv").read_text().splitlines()
        assert len(lines) == 2 + 4  # one row per band

    def test_cell_mse_recomputable_from_persisted_recon(self, workdir):
        Path("suite.txt").write_text(SUITE)
        assert main(["benchmark", "--suite", "suite.txt", "--out", "bench"]) == 0
        rows = (workdir / "bench" / "mse_vs_m.csv").read_text().splitlines()[2:]
        header = (workdir / "bench" / "mse_vs_m.csv").read_text().splitlines()[1].split(",")
        for row in rows:
            vals = dict(zip(header, row.split(",")))
            name = (f"{vals['scenario']}_m{vals['m']}_{vals['init']}_"
                    f"{vals['filter']}_s{vals['seed']}.pcs3")
            rec = dataio.load_cube(workdir / "bench" / "recons" / name)
            truth = dataio.synth_image(int(vals["seed"]), 16, 16).samples
            recomputed = float(np.mean((rec.samples[:, :, 0] - truth) ** 2))
            assert recomputed == float(vals["final_mse"])

    def test_kcs_curve_ordering_through_harness(self, workdir):
        # joint-recovery initialization beats separate recovery at low rate
        Path("suite.txt").write_text(
            "scenario = 3d\nrows = 8\ncols = 8\nbands = 4\nm = 8\nseeds = 0\n"
            "init = separate,kcs\nfilter = blockls\niters = 2\n"
        )
        assert main(["benchmark", "--suite", "suite.txt", "--out", "bench"]) == 0
        lines = (workdir / "bench" / "mse_vs_m.csv").read_text().splitlines()
        header = lines[1].split(",")
        cells = {dict(zip(header, ln.split(",")))["init"]: dict(zip(header, ln.split(",")))
                 for ln in lines[2:]}
        assert float(cells["kcs"]["init_mse"]) < float(cells["separate"]["init_mse"])

    def test_3d_rows_scenario(self, workdir):
        Path("suite.txt").write_text(
            "scenario = 3d_rows\nrows = 8\ncols = 8\nbands = 4\nm = 8\nseeds = 0\n"
            "filter = p1\niters = 2\n"
        )
        assert main(["benchmark", "--suite", "suite.txt", "--out", "bench"]) == 0
        lines = (workdir / "bench" / "mse_vs_m.csv").read_text().splitlines()
        assert lines[2].startswith("3d_rows,8,")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_cell_recorded_run_continues(self, workdir, capsys, jobs):
        # m = 16 equals the slice length for a 4x4 band: that cell fails, the
        # m = 8 cell still lands in the CSVs and the exit code flags trouble
        Path("suite.txt").write_text(
            "scenario = 3d\nrows = 4\ncols = 4\nbands = 2\nm = 16,8\nseeds = 0\n"
            "filter = blockls\niters = 1\n"
        )
        assert main(["benchmark", "--suite", "suite.txt", "--out", "bench", "--jobs", str(jobs)]) == 1
        err = capsys.readouterr().err
        assert "cell failed" in err
        rows = (workdir / "bench" / "mse_vs_m.csv").read_text().splitlines()[2:]
        assert len(rows) == 1 and rows[0].startswith("3d,8,")

    def test_filter_must_fit_the_scenario(self, workdir, capsys):
        # bands take only blockls: the p3 cell fails and is named, the
        # blockls cell still lands under its own label
        Path("suite.txt").write_text(
            "scenario = 3d\nrows = 4\ncols = 4\nbands = 2\nm = 8\nseeds = 0\n"
            "filter = p3,blockls\niters = 1\n"
        )
        assert main(["benchmark", "--suite", "suite.txt", "--out", "bench"]) == 1
        assert "cell failed: 3d m=8 seed=0: layout BANDS_3D" in capsys.readouterr().err
        rows = (workdir / "bench" / "mse_vs_m.csv").read_text().splitlines()[2:]
        assert len(rows) == 1 and rows[0].startswith("3d,8,separate,blockls,0,")
        assert [p.name for p in (workdir / "bench" / "recons").iterdir()] == ["3d_m8_separate_blockls_s0.pcs3"]

    def test_recons_not_saved_when_switched_off(self, workdir):
        Path("suite.txt").write_text(SUITE + "include_omp = true\nsave_recons = false\n")
        assert main(["benchmark", "--suite", "suite.txt", "--out", "bench"]) == 0
        assert len((workdir / "bench" / "mse_vs_m.csv").read_text().splitlines()) == 2 + 4
        assert not (workdir / "bench" / "recons").exists()

    def test_3d_omp_cells_have_no_band_rows(self, workdir):
        Path("suite.txt").write_text(
            "scenario = 3d\nrows = 8\ncols = 8\nbands = 4\nm = 16\nseeds = 0\n"
            "filter = blockls\niters = 1\ninclude_omp = true\n"
        )
        assert main(["benchmark", "--suite", "suite.txt", "--out", "bench"]) == 0
        m_rows = (workdir / "bench" / "mse_vs_m.csv").read_text().splitlines()[2:]
        assert [r.split(",")[2:4] for r in m_rows] == [["separate", "blockls"], ["omp", "-"]]
        band_rows = (workdir / "bench" / "mse_per_band.csv").read_text().splitlines()[2:]
        assert [r.split(",")[2] for r in band_rows] == ["separate"] * 4

    def test_omp_is_no_init_strategy_of_a_suite(self, workdir, capsys):
        # the OMP baseline comes from include_omp; init = omp is refused per cell
        Path("suite.txt").write_text(SUITE.replace("init = separate", "init = omp,separate"))
        assert main(["benchmark", "--suite", "suite.txt", "--out", "bench"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"cell failed: 2d m={m} seed=0: unknown init strategy 'omp'" for m in (4, 8)]
        rows = (workdir / "bench" / "mse_vs_m.csv").read_text().splitlines()[2:]
        assert [r.split(",")[2] for r in rows] == ["separate", "separate"]

    def test_values_no_cell_can_use_refused_at_parse_time(self, workdir, capsys):
        switch_words = "is not one of true, 1, yes, false, 0, no"
        for line, refusal in [("scenario = 4d", "scenario '4d' is not one of 2d, 3d, 3d_rows"),
                              ("include_omp = flase", f"include_omp 'flase' {switch_words}"),
                              ("save_recons = maybe", f"save_recons 'maybe' {switch_words}")]:
            Path("suite.txt").write_text(SUITE + line + "\n")
            assert main(["benchmark", "--suite", "suite.txt", "--out", "bench"]) == 2
            assert capsys.readouterr().err == f"error: suite.txt:11: {refusal}\n"
            assert not (workdir / "bench").exists()
        # the switches read in any case
        Path("suite.txt").write_text("include_omp = YES\nsave_recons = No\n")
        assert parse_suite("suite.txt")["include_omp"] == "YES"

    def test_non_numeric_values_refused_at_parse_time(self, workdir, capsys):
        not_int = "invalid literal for int() with base 10:"
        for line, refusal in [("rows = abc", f"rows 'abc': {not_int} 'abc'"),
                              ("m = 4,x", f"m '4,x': {not_int} 'x'"),
                              ("seeds = 0,1.5", f"seeds '0,1.5': {not_int} '1.5'"),
                              ("jobs = two", f"jobs 'two': {not_int} 'two'"),
                              ("tol = abc", "tol 'abc': could not convert string to float: 'abc'")]:
            Path("suite.txt").write_text(SUITE + line + "\n")
            assert main(["benchmark", "--suite", "suite.txt", "--out", "bench"]) == 2
            assert capsys.readouterr().err == f"error: suite.txt:11: {refusal}\n"
            assert not (workdir / "bench").exists()
        # the values are kept as written: they enter the manifest digest
        Path("suite.txt").write_text("m = 4, 8\ntol = 1E-4\n")
        assert parse_suite("suite.txt") == {**cli._SUITE_DEFAULTS, "m": "4, 8", "tol": "1E-4"}

    def test_repeated_values_and_bad_jobs_refused_at_parse_time(self, workdir, capsys):
        for line, refusal in [("m = 2,2", "m '2,2' repeats 2"),
                              ("m = 4, 8, 04", "m '4, 8, 04' repeats 4"),
                              ("seeds = 0,1,0", "seeds '0,1,0' repeats 0"),
                              ("init = separate,kcs,separate", "init 'separate,kcs,separate' repeats 'separate'"),
                              ("filter = p3, p3", "filter 'p3, p3' repeats 'p3'"),
                              ("jobs = 0", "jobs '0' must be >= 1"),
                              ("jobs = -3", "jobs '-3' must be >= 1")]:
            Path("suite.txt").write_text(SUITE + line + "\n")
            assert main(["benchmark", "--suite", "suite.txt", "--out", "bench"]) == 2
            assert capsys.readouterr().err == f"error: suite.txt:11: {refusal}\n"
            assert not (workdir / "bench").exists()

    def test_negative_jobs_flag_refused(self, workdir, capsys):
        Path("suite.txt").write_text(SUITE)
        assert main(["benchmark", "--suite", "suite.txt", "--out", "bench", "--jobs", "-3"]) == 2
        assert capsys.readouterr().err == "error: --jobs -3 must be >= 0 (0 takes the suite's jobs)\n"
        assert not (workdir / "bench").exists()

    def test_unknown_filter_named_per_cell(self, workdir, capsys):
        Path("suite.txt").write_text(SUITE.replace("filter = p3", "filter = p4,p3"))
        assert main(["benchmark", "--suite", "suite.txt", "--out", "bench"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"cell failed: 2d m={m} seed=0: unknown filter 'p4'; choose from blockls, p1, p2, p3"
                       for m in (4, 8)]

    def test_suite_parsing(self, workdir):
        Path("bad.txt").write_text("unknown_key = 3\n")
        with pytest.raises(ValueError):
            parse_suite("bad.txt")
        Path("cmt.txt").write_text("# only a comment\n\nrows = 8\n")
        cfg = parse_suite("cmt.txt")
        assert cfg["rows"] == "8"
        assert cfg["cols"] == cli._SUITE_DEFAULTS["cols"]


def test_default_profile_same_in_every_copy():
    # the defaults are written in ReconConfig, the reconstruct flags and the
    # suite defaults; the suite differs only in its outer-iteration count
    args = cli.build_parser().parse_args(["reconstruct", "x", "-o", "y"])
    assert cli._recon_config(vars(args)) == recon.ReconConfig()
    cell = {key: kind(cli._SUITE_DEFAULTS[key]) for key, kind in cli._CELL_TYPES.items()}
    cell.update(init=cli._SUITE_DEFAULTS["init"], filter=cli._SUITE_DEFAULTS["filter"])
    assert cli._recon_config(cell) == recon.ReconConfig(max_outer_iters=8)


def test_written_manifest_digest_is_the_sha256_of_its_canonical_fields(workdir):
    # the digest that every CSV embeds is recomputable from the manifest file
    # alone: the SHA-256 of the other six fields as canonical JSON
    (workdir / "in.bin").write_bytes(b"input")
    digest = cli._write_manifest(workdir / "run.manifest.json", "x", {"b": [1, 2], "a": 1.5}, 5,
                                 workdir / "in.bin", ["o.csv"])
    text = (workdir / "run.manifest.json").read_text()
    assert text.endswith("}\n")
    manifest = json.loads(text)
    assert set(manifest) == {"digest", "command", "config", "master_seed", "input_digest", "outputs",
                             "versions"}
    fields = {key: value for key, value in manifest.items() if key != "digest"}
    canonical = json.dumps(fields, sort_keys=True, separators=(",", ":")).encode()
    assert manifest["digest"] == hashlib.sha256(canonical).hexdigest() == digest
    assert manifest["input_digest"] == hashlib.sha256(b"input").hexdigest()
    assert text == json.dumps(manifest, sort_keys=True, indent=2) + "\n"


def test_traced_entry_points_resolve():
    # every entry point the benchmark wraps (perfbench/spans.py) exists on pcs
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, cls, attr in spans.TRACED:
        owner = importlib.import_module(f"pcs.{module}")
        if cls is not None:
            owner = getattr(owner, cls)
        assert callable(getattr(owner, attr)), (module, cls, attr)


def test_cli_import_loads_no_scipy_sparse_or_linalg():
    # pcs needs neither at import; loading them cost every `pcs` process about
    # 0.1 s and 10 MB RSS (median import 0.71 -> 0.61 s, RSS 64.8 -> 55.0 MB
    # over 8 fresh interpreters, 2-core x86), so a change that needs them
    # pays that knowingly
    code = ("import sys, pcs.cli; "
            "print([m for m in sys.modules if m.startswith(('scipy.sparse', 'scipy.linalg'))])")
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
