"""End-to-end command-line runs: determinism, formats, manifest."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cdotto
from cdotto.cli import CSV_COLUMNS, RunManifest, emit_results, main
from cdotto.cycle import CONVERGE_TOL, default_workers

CONFIG = "N = 1,2\np = 0,1\ntau = 0.5\n"


def run_cli(args):
    return main(list(args))


def tree_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH, for subprocesses."""
    src = str(Path(cdotto.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG)
    return path


class TestRun:
    def test_tiny_grid_csv(self, tmp_path, config_file, capsys):
        out = tmp_path / "out"
        code = run_cli(["run", "--config", str(config_file), "--out", str(out),
                        "--steps-per-unit-time", "400", "--workers", "2"])
        assert code == 0
        text = (out / "results.csv").read_text()
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 5
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["grid_size"] == 4
        assert manifest["failures"] == []
        assert manifest["tool_version"]
        assert len(manifest["config_digest"]) == 64

    def test_diagnostics_sidecar_and_progress(self, tmp_path, config_file, capsys):
        out = tmp_path / "out"
        assert run_cli(["run", "--config", str(config_file), "--out", str(out),
                        "--steps-per-unit-time", "400", "--workers", "2"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        points = json.loads((out / manifest["diagnostics"]).read_text())
        assert [pt["index"] for pt in points] == [0, 1, 2, 3]
        for pt in points:
            assert pt["label"].startswith("N=")
            assert pt["pass_steps"] == [2000] and len(pt["pass_qc"]) == 1
            assert pt["qc_error"] is None
            assert pt["wall_s"] > 0 and pt["agp_fallbacks"] == pt["agp_direct"] == 0
            assert pt["agp_factor_s"] >= 0.0
            assert isinstance(pt["endpoint_gap"], float) and "gap_flag" not in pt
            assert pt["trace_drift"] <= 1e-10 and pt["purity_drift"] <= 1e-10
        progress = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("[")]
        assert sorted(line.split("]")[0] for line in progress) == \
            ["[1/4", "[2/4", "[3/4", "[4/4"]
        assert all("steps=2000 passes=1" in line for line in progress)

    def test_converged_point_records_every_pass(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("N = 1\np = 0\ntau = 0.5\n")
        out = tmp_path / "out"
        assert run_cli(["run", "--config", str(cfg), "--out", str(out)]) == 0
        (pt,) = json.loads((out / "diagnostics.json").read_text())
        row = dict(zip(CSV_COLUMNS, (out / "results.csv").read_text().split("\n")[1].split(",")))
        assert len(pt["pass_qc"]) == len(pt["pass_steps"]) >= 2
        assert pt["pass_steps"][-1] == int(row["steps"])
        assert pt["pass_qc"][-1] == float(row["Qc"])
        # the second-order Richardson estimate of the reported Qc's error
        assert pt["qc_error"] == abs(pt["pass_qc"][-1] - pt["pass_qc"][-2]) / 3
        assert row["converged"] == "true" and pt["qc_error"] <= CONVERGE_TOL / 3

    def test_manifest_records_default_workers(self, tmp_path, config_file):
        out = tmp_path / "out"
        assert run_cli(["run", "--config", str(config_file), "--out", str(out),
                        "--steps-per-unit-time", "400"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        expected = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
            else os.cpu_count()
        assert manifest["workers"] == default_workers() == expected

    @pytest.mark.parametrize("rate,digest,options", [
        (None, "2ca9002a864decae980bfafec635fbf0873184967fa8a7ea4f30608d97698346",
         {"steps_per_unit_time": 2000.0, "min_steps": 1000, "max_steps": 20000,
          "converge": True, "converge_tol": 1e-07}),
        ("400", "7a910582b0eb8359c226abd17e102788dbc754184dfe615afa925a5655b3d11f",
         {"steps_per_unit_time": 400.0, "min_steps": 1000, "max_steps": 20000,
          "converge": False, "converge_tol": 1e-07}),
    ], ids=["default", "fixed-rate"])
    def test_config_digest_and_options_echo_are_pinned(self, tmp_path, rate, digest, options):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("N = 1\np = 0\ntau = 0.5\n")
        out = tmp_path / "out"
        argv = ["run", "--config", str(cfg), "--out", str(out), "--workers", "1"]
        assert run_cli(argv + (["--steps-per-unit-time", rate] if rate else [])) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_digest"] == digest
        # equal as dicts and in field order
        assert list(manifest["options"].items()) == list(options.items())

    def test_reruns_are_byte_identical(self, tmp_path, config_file):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_cli(["run", "--config", str(config_file), "--out", str(out),
                            "--steps-per-unit-time", "400"]) == 0
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        for key in ("started", "finished"):
            m1.pop(key), m2.pop(key)
        assert m1 == m2

    def test_worker_count_does_not_change_results(self, tmp_path, config_file):
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        for out, workers in ((out1, "1"), (out2, "2")):
            assert run_cli(["run", "--config", str(config_file), "--out", str(out),
                            "--steps-per-unit-time", "400", "--workers", workers]) == 0
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()

    @pytest.mark.parametrize("text", [
        "N = 3\np = 2,3\ntau = 0.5\n",
        "N = 3\np = 1,3\ntau = 0.5\nh_i = 0.21 0.18 0.2\nb_f = 0.5 0.46 0.55\n"
        "J_f = 0.1 0.12 0.09\n",
    ], ids=["uniform", "disordered"])
    def test_worker_count_does_not_change_controlled_results(self, tmp_path, text):
        cfg = tmp_path / "cd.cfg"
        cfg.write_text(text)
        outs = [tmp_path / f"w{workers}" for workers in (1, 2)]
        for out, workers in zip(outs, ("1", "2")):
            assert run_cli(["run", "--config", str(cfg), "--out", str(out),
                            "--steps-per-unit-time", "400", "--workers", workers]) == 0
        assert (outs[0] / "results.csv").read_bytes() == (outs[1] / "results.csv").read_bytes()

    def test_json_round_trip(self, tmp_path, config_file):
        out = tmp_path / "out"
        assert run_cli(["run", "--config", str(config_file), "--out", str(out),
                        "--format", "json", "--steps-per-unit-time", "400"]) == 0
        rows = json.loads((out / "results.json").read_text())
        assert len(rows) == 4
        # serialize again: float round trip must be drift-free
        assert json.loads(json.dumps(rows)) == rows
        assert rows[1]["cop"] == pytest.approx(2.0 / 3.0, abs=1e-4)

    def test_exact_control_rows_have_no_device_work(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("N = 1\np = 1,2\ntau = 1\n")
        out = tmp_path / "out"
        assert run_cli(["run", "--config", str(cfg), "--out", str(out),
                        "--steps-per-unit-time", "2000"]) == 0
        rows = (out / "results.csv").read_text().strip().split("\n")[1:]
        for row in rows:
            cells = dict(zip(CSV_COLUMNS, row.split(",")))
            if int(cells["p"]) >= int(cells["N"]):
                assert abs(float(cells["WCD_total"])) <= 1e-6

    def test_preset_with_config_override(self, tmp_path):
        # shrink the fig3 preset to a single cheap point via overrides
        cfg = tmp_path / "override.cfg"
        cfg.write_text("N = 1\np = 1\ntau = 0.5\n")
        out = tmp_path / "out"
        assert run_cli(["run", "--preset", "fig3", "--config", str(cfg),
                        "--out", str(out), "--steps-per-unit-time", "400"]) == 0
        lines = (out / "results.csv").read_text().strip().split("\n")
        assert len(lines) == 2

    def test_requires_config_or_preset(self, capsys):
        assert run_cli(["run"]) == 2
        assert "required" in capsys.readouterr().err

    def test_unwritable_output_fails_before_compute(self, tmp_path, config_file, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = run_cli(["run", "--config", str(config_file),
                        "--out", str(blocker / "sub")])
        assert code == 2
        assert "not writable" in capsys.readouterr().err

    def test_config_error_is_reported(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("N = 1\n")
        assert run_cli(["run", "--config", str(cfg)]) == 2
        assert "missing required keys" in capsys.readouterr().err

    def test_non_utf8_config_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes("N = 1\np = 0  # caf\u00e9\n".encode("latin-1"))
        assert run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(cfg) in err and "not UTF-8" in err

    def test_non_finite_config_value_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text("N = 1\np = 0\nTc = nan\n")
        assert run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "error: line 3: key 'Tc' expects finite numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--workers", "0"), ("--workers", "-3"),
        ("--steps-per-unit-time", "0"), ("--steps-per-unit-time", "-5"),
        ("--steps-per-unit-time", "nan"), ("--steps-per-unit-time", "inf"),
    ])
    def test_out_of_range_arguments_are_rejected(self, tmp_path, config_file, capsys,
                                                 flag, value):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--config", str(config_file), "--out", str(out), flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_console_entry_point(self, config_file, tmp_path):
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "cdotto.cli", "run", "--config", str(config_file),
             "--out", str(out), "--steps-per-unit-time", "400"],
            capture_output=True, text=True, env=tree_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert "4/4 grid points completed" in proc.stdout


class TestEmit:
    def _manifest(self):
        return RunManifest(tool_version="0", config_digest="d", grid_size=0,
                           workers=1, started="s", finished="f", failures=[],
                           options={})

    def test_empty_reports_header_only(self, tmp_path):
        results, manifest = emit_results([], "csv", tmp_path, self._manifest())
        assert results.read_text() == ",".join(CSV_COLUMNS) + "\n"
        assert manifest.exists()

    def test_empty_json(self, tmp_path):
        results, _ = emit_results([], "json", tmp_path, self._manifest())
        assert json.loads(results.read_text()) == []
        assert json.loads((tmp_path / "diagnostics.json").read_text()) == []


# cdotto.cli first, as in a `cdotto run` process; then a matmul large enough
# for OpenBLAS to use its threads, and the thread count of the process
BLAS_PROBE = ("import os, cdotto.cli, numpy as np; "
              "a = np.random.default_rng(0).random((300, 300)); a @ a; "
              "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])")


def run_blas_probe(**blas_env):
    """(thread count, OPENBLAS_NUM_THREADS) of a fresh process running BLAS_PROBE."""
    env = tree_env()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env.pop(var, None)
    env.update(blas_env)
    proc = subprocess.run([sys.executable, "-c", BLAS_PROBE], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    threads, openblas = proc.stdout.split()
    return int(threads), openblas


needs_proc_tasks = pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                                      reason="needs /proc/self/task")


@needs_proc_tasks
def test_cli_import_pins_one_blas_thread():
    assert run_blas_probe() == (1, "1")


@needs_proc_tasks
def test_explicit_blas_threads_are_kept():
    threads, openblas = run_blas_probe(OPENBLAS_NUM_THREADS="2")
    assert openblas == "2"
    if default_workers() >= 2:
        assert threads == 2


def test_import_loads_no_scipy():
    # numpy's BLAS is the only one the program loads; a second library
    # brings a second thread pool that competes with numpy's
    code = ("import sys, cdotto, cdotto.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=tree_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
