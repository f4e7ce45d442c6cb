"""Command-line harness: subcommands, determinism, exit codes, verify suites."""

from gpprec import serialization as ser
from gpprec.cli import CSV_COLUMNS, main
from gpprec.linalg import spectral_norm, symmetrize
from gpprec.verify import run_suites


def run_cli(*argv):
    return main(list(argv))


class TestEstimate:
    def test_emits_one_row_per_point(self, tmp_path):
        out = tmp_path / "rows.csv"
        code = run_cli(
            "estimate", "--model", "laplacian", "--d", "1", "--p", "12", "--s", "1",
            "--n", "400,800", "--seeds", "0,1", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# gpprec-csv")
        assert lines[1] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2 + 4
        for row in lines[2:]:
            fields = row.split(",")
            assert float(fields[9]) > 0.0
            assert fields[12] == ""

    def test_small_lattice_reports_fallback(self, tmp_path, capsys):
        code = run_cli(
            "estimate", "--model", "laplacian", "--d", "1", "--p", "2", "--s", "1",
            "--n", "300", "--seeds", "0",
        )
        assert code == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[2].split(",")[8] == "fallback_full_inverse"

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = [
            "estimate", "--model", "laplacian", "--d", "1", "--p", "10", "--s", "1",
            "--n", "300", "--seeds", "1,2",
        ]
        assert run_cli(*argv, "--out", str(out1)) == 0
        assert run_cli(*argv, "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_error_recomputable_from_stored_files(self, tmp_path):
        # The emitted relative error must match a recomputation from the
        # stored estimate and truth matrices.
        out = tmp_path / "rows.csv"
        sim_dir = tmp_path / "sim"
        est_dir = tmp_path / "estimates"
        argv_common = [
            "--model", "laplacian", "--d", "1", "--p", "9", "--s", "1",
            "--n", "500", "--seeds", "3",
        ]
        code = run_cli(
            "estimate", *argv_common, "--out", str(out),
            "--save-estimates", str(est_dir),
        )
        assert code == 0
        assert run_cli("simulate", *argv_common, "--out", str(sim_dir)) == 0
        emitted = float(out.read_text().splitlines()[2].split(",")[9])
        _, _, omega = ser.parse_truth(next(sim_dir.glob("*-truth.txt")).read_text())
        estimate = ser.load_matrix(next(est_dir.glob("*seed3-estimate.txt")))
        recomputed = spectral_norm(symmetrize(estimate - omega)) / spectral_norm(omega)
        assert abs(recomputed - emitted) <= 1e-12

    def test_factor_modes_run(self, capsys):
        for factor in ("cholesky", "cholesky-star"):
            code = run_cli(
                "estimate", "--model", "laplacian", "--d", "1", "--p", "7", "--s", "1",
                "--n", "2000", "--seeds", "0", "--factor", factor,
            )
            assert code == 0
            row = capsys.readouterr().out.splitlines()[2].split(",")
            assert row[8] == "multiscale"
            assert float(row[9]) > 0.0

    def test_scattered_green_runs(self, capsys):
        code = run_cli(
            "estimate", "--model", "green", "--d", "1", "--p", "14", "--s", "2",
            "--n", "1500", "--seeds", "0", "--scattered",
        )
        assert code == 0
        row = capsys.readouterr().out.splitlines()[2].split(",")
        assert row[1] == "green_restriction"
        assert float(row[9]) > 0.0

    def test_matern_model_runs(self, capsys):
        code = run_cli(
            "estimate", "--model", "matern", "--d", "1", "--p", "16", "--s", "1",
            "--n", "1500", "--seeds", "0",
        )
        assert code == 0
        row = capsys.readouterr().out.splitlines()[2].split(",")
        assert row[1] == "matern"
        assert float(row[9]) > 0.0

    def test_green_2d_runs(self, capsys):
        code = run_cli(
            "estimate", "--model", "green", "--d", "2", "--p", "4", "--s", "2",
            "--n", "1200", "--seeds", "0",
        )
        assert code == 0
        row = capsys.readouterr().out.splitlines()[2].split(",")
        assert row[2] == "2"
        assert row[3] == "16"
        assert float(row[9]) > 0.0

    def test_laplacian_above_512_vertices_runs(self, capsys):
        # 24**2 = 576 vertices with kappa near 6.4e4.
        code = run_cli(
            "estimate", "--model", "laplacian", "--d", "2", "--p", "24", "--s", "2",
            "--n", "1000", "--b", "3",
        )
        assert code == 0
        row = capsys.readouterr().out.splitlines()[2].split(",")
        assert row[12] == ""
        assert float(row[9]) > 0.0

    def test_row_error_recorded_and_nonzero_exit(self, capsys):
        # N far below the variable count breaks every scale of the factor
        # estimator; the row survives with an error tag.
        code = run_cli(
            "estimate", "--model", "laplacian", "--d", "1", "--p", "15", "--s", "1",
            "--n", "4", "--seeds", "0", "--factor", "cholesky",
        )
        assert code == 1
        row = capsys.readouterr().out.splitlines()[2].split(",")
        assert row[12] == "NotPositiveDefinite"
        assert row[9] == "nan"


class TestConfigFile:
    def test_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model=laplacian\nd=1\np=8\ns=1\nn=200\nseeds=5\n")
        code = run_cli("estimate", "--config", str(cfg), "--p", "6")
        assert code == 0
        row = capsys.readouterr().out.splitlines()[2].split(",")
        assert row[3] == "6"

    def test_bad_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("unknown_key=1\n")
        assert run_cli("estimate", "--config", str(cfg)) == 2

    def test_invalid_s_exits_nonzero_naming_field(self, capsys):
        code = run_cli(
            "simulate", "--model", "laplacian", "--d", "1", "--p", "8", "--s", "0",
            "--n", "100", "--seeds", "0",
        )
        assert code == 2
        assert "s must be" in capsys.readouterr().err


class TestSimulate:
    def test_files_written_and_idempotent(self, tmp_path):
        argv = [
            "simulate", "--model", "laplacian", "--d", "1", "--p", "6", "--s", "1",
            "--n", "50", "--seeds", "0,1", "--out", str(tmp_path),
        ]
        assert run_cli(*argv) == 0
        names = sorted(f.name for f in tmp_path.iterdir())
        assert any("truth" in n for n in names)
        assert sum("samples" in n for n in names) == 2
        first = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
        assert run_cli(*argv) == 0
        second = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
        assert first == second

    def test_distinct_seeds_differ(self, tmp_path):
        argv = [
            "simulate", "--model", "laplacian", "--d", "1", "--p", "6", "--s", "1",
            "--n", "50", "--seeds", "0,1", "--out", str(tmp_path),
        ]
        assert run_cli(*argv) == 0
        files = sorted(tmp_path.glob("*samples*"))
        assert files[0].read_bytes() != files[1].read_bytes()


class TestScalingStudy:
    def test_aggregate_section_with_slopes(self, tmp_path):
        out = tmp_path / "study.csv"
        code = run_cli(
            "scaling-study", "--model", "laplacian", "--d", "1", "--s", "1",
            "--n", "250,1000", "--seeds", "0,1,2", "--p-list", "8,12", "--b", "3",
            "--out", str(out),
        )
        assert code == 0
        text = out.read_text()
        assert "# aggregate v1" in text
        assert "slope_vs_N" in text
        assert "slope_vs_p" in text

    def test_single_point_omits_aggregate(self, tmp_path):
        out = tmp_path / "study.csv"
        code = run_cli(
            "scaling-study", "--model", "laplacian", "--d", "1", "--p", "8", "--s", "1",
            "--n", "250", "--seeds", "0", "--out", str(out),
        )
        assert code == 0
        assert "# aggregate" not in out.read_text()

    def test_sample_size_slope_in_band(self, tmp_path):
        # The emitted aggregate slope reproduces the square-root rate.
        out = tmp_path / "study.csv"
        seeds = ",".join(str(s) for s in range(20))
        code = run_cli(
            "scaling-study", "--model", "laplacian", "--d", "1", "--p", "40", "--s", "1",
            "--n", "250,1000,4000", "--seeds", seeds, "--b", "4", "--out", str(out),
        )
        assert code == 0
        slope_rows = [
            ln for ln in out.read_text().splitlines() if ln.startswith("slope_vs_N")
        ]
        assert len(slope_rows) == 1
        slope = float(slope_rows[0].split(",")[3])
        assert -0.65 <= slope <= -0.35


class TestVerify:
    def test_all_suites_pass(self, capsys):
        assert run_cli("verify") == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_injected_asymmetry_fails(self, capsys):
        assert run_cli("verify", "--suite", "symmetry", "--inject-asymmetry") == 1
        assert "FAIL" in capsys.readouterr().out

    def test_suite_filter(self, capsys):
        assert run_cli("verify", "--suite", "ols") == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1
        assert out[0].startswith("ols")

    def test_results_reusable_in_process(self):
        results = run_suites(["block_inverse", "ols"])
        assert all(r.passed for r in results)

    def test_csv_report(self, tmp_path, capsys):
        out = tmp_path / "suites.csv"
        assert run_cli("verify", "--suite", "symmetry", "--out", str(out)) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[1] == "suite,passed,detail"
        assert lines[2].startswith("symmetry,1,")


class TestBench:
    def test_bench_times_rows(self, capsys):
        code = run_cli(
            "bench", "--model", "laplacian", "--d", "1", "--p", "10", "--s", "1",
            "--n", "300", "--seeds", "0",
        )
        assert code == 0
        row = capsys.readouterr().out.splitlines()[2].split(",")
        assert float(row[11]) > 0.0
