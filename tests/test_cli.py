"""Command-line harness: subcommands, determinism, exit codes, verify suites."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gpprec import cli
from gpprec import serialization as ser
from gpprec import truth as truth_module
from gpprec.cholesky import assemble_U, assemble_U_star, exact_scales
from gpprec.cli import CSV_COLUMNS, ResultRow, main
from gpprec.hierarchy import assign_levels, maximin_order
from gpprec.lattice import lattice_points
from gpprec.linalg import (
    cholesky_lower,
    reverse_cholesky,
    spd_inverse,
    spectral_norm,
    symmetrize,
)
from gpprec.matching import measure_cloud
from gpprec.verify import run_suites


def run_cli(*argv):
    return main(list(argv))


def test_import_does_not_load_csgraph():
    # Only the scattered route matches; lattice and factor runs should not
    # pay for loading scipy's graph module.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, gpprec.cli; sys.exit('scipy.sparse.csgraph' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120)
    assert done.returncode == 0


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

    def test_block_width_skips_fallback(self, capsys):
        # The same lattice as above, but an explicit --b runs blockwise.
        code = run_cli(
            "estimate", "--model", "laplacian", "--d", "1", "--p", "2", "--s", "1",
            "--n", "300", "--seeds", "0", "--b", "1",
        )
        assert code == 0
        row = capsys.readouterr().out.splitlines()[2].split(",")
        assert (row[7], row[8], row[12]) == ("1", "blockwise", "")

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

    def test_factor_rows_share_one_sigma_factor(self, monkeypatch, capsys):
        # The maximin-permuted truth is built once per run, so its omega is
        # factored once however many rows sample it.
        calls = []

        def counting(a):
            calls.append(a.shape)
            return reverse_cholesky(a)

        monkeypatch.setattr(truth_module, "reverse_cholesky", counting)
        code = run_cli(
            "estimate", "--model", "laplacian", "--d", "1", "--p", "7", "--s", "1",
            "--n", "1000,2000", "--seeds", "0,1", "--factor", "cholesky",
        )
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 2 + 4
        assert calls == [(7, 7)]

    @pytest.mark.parametrize(
        "factor,assemble", [("cholesky", assemble_U), ("cholesky-star", assemble_U_star)]
    )
    def test_factor_error_matches_definition(self, tmp_path, factor, assemble):
        # The emitted error is ||u_hat - U||_2 / ||U||_2 for the exact factor
        # U of the maximin-permuted truth, whatever route computes it.
        out = tmp_path / "rows.csv"
        est_dir = tmp_path / "estimates"
        code = run_cli(
            "estimate", "--model", "laplacian", "--d", "1", "--p", "24", "--s", "1",
            "--n", "500", "--seeds", "3", "--factor", factor, "--out", str(out),
            "--save-estimates", str(est_dir),
        )
        assert code == 0
        emitted = float(out.read_text().splitlines()[2].split(",")[9])
        u_hat = ser.load_matrix(next(est_dir.glob("*seed3-estimate.txt")))
        truth = truth_module.build_lattice_precision(24, 1, 1)
        order = maximin_order(measure_cloud(lattice_points(truth.geometry), 1))
        levels = assign_levels(order)
        omega_mm = symmetrize(truth.omega[np.ix_(order.perm, order.perm)])
        exact = assemble(exact_scales(omega_mm, levels, 1))
        recomputed = np.linalg.norm(u_hat - exact, 2) / np.linalg.norm(exact, 2)
        assert abs(recomputed - emitted) <= 1e-10 * recomputed

    @pytest.mark.parametrize(
        "factor,unused", [("cholesky", "assemble_U_star"), ("cholesky-star", "assemble_U")]
    )
    def test_factor_run_builds_only_its_factor(self, monkeypatch, capsys, factor, unused):
        calls = {"assemble_U": 0, "assemble_U_star": 0}

        def counting(name, fn):
            def spy(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return spy

        for name, fn in (("assemble_U", assemble_U), ("assemble_U_star", assemble_U_star)):
            monkeypatch.setattr(cli, name, counting(name, fn))
        code = run_cli(
            "estimate", "--model", "laplacian", "--d", "1", "--p", "7", "--s", "1",
            "--n", "1000,2000", "--seeds", "0,1", "--factor", factor,
        )
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 2 + 4
        assert calls[unused] == 0
        # One estimate per row; cholesky-star also assembles its exact factor
        # once per run, while the exact cholesky factor is the truth's own.
        assert sum(calls.values()) == (4 if factor == "cholesky" else 1 + 4)

    @pytest.mark.parametrize("factor", ["precision", "cholesky"])
    def test_truth_norm_computed_once_per_run(self, monkeypatch, capsys, factor):
        # A Green's truth has no closed-form norm, so one Lanczos solve
        # serves every row.
        calls = []

        def counting(a):
            calls.append(a.shape)
            return spectral_norm(a)

        monkeypatch.setattr(truth_module, "spectral_norm", counting)
        code = run_cli(
            "estimate", "--model", "green", "--d", "1", "--p", "7", "--s", "1",
            "--n", "1000,2000", "--seeds", "0,1", "--factor", factor, "--b", "3",
        )
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 2 + 4
        assert calls == [(7, 7)]

    @pytest.mark.parametrize("factor", ["precision", "cholesky"])
    def test_lattice_truth_norm_is_closed_form(self, monkeypatch, capsys, factor):
        calls = []

        def counting(a):
            calls.append(a.shape)
            return spectral_norm(a)

        monkeypatch.setattr(truth_module, "spectral_norm", counting)
        code = run_cli(
            "estimate", "--model", "laplacian", "--d", "1", "--p", "7", "--s", "1",
            "--n", "1000,2000", "--seeds", "0,1", "--factor", factor, "--b", "3",
        )
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 2 + 4
        assert calls == []

    def test_lattice_factor_run_forms_no_covariance(self, monkeypatch, capsys):
        # The exact factor, the exact scales and the sampling factor all come
        # from one m x m Cholesky factorization of the permuted precision.
        inverses, factorizations = [], []

        def counting(log, fn):
            def spy(a):
                log.append(np.shape(a))
                return fn(a)
            return spy

        monkeypatch.setattr(truth_module, "spd_inverse", counting(inverses, spd_inverse))
        monkeypatch.setattr(
            truth_module, "cholesky_lower", counting(factorizations, cholesky_lower)
        )
        monkeypatch.setattr(
            truth_module, "reverse_cholesky", counting(factorizations, reverse_cholesky)
        )
        code = run_cli(
            "estimate", "--model", "laplacian", "--d", "2", "--p", "6", "--s", "2",
            "--n", "1000,2000", "--seeds", "0,1", "--factor", "cholesky",
        )
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 2 + 4
        assert inverses == []
        assert factorizations == [(36, 36)]

    @pytest.mark.parametrize(
        "argv",
        [("--d", "1", "--p", "1"), ("--d", "1", "--p", "2"),
         ("--factor", "cholesky", "--d", "1", "--p", "3")],
    )
    def test_tiny_sizes_give_finite_errors(self, capsys, argv):
        # One and two variables are the sizes a Krylov norm solve cannot
        # take as they are.
        assert run_cli("estimate", *argv) == 0
        row = capsys.readouterr().out.splitlines()[2].split(",")
        assert row[12] == ""
        assert np.isfinite(float(row[9]))

    def test_factor_context_permutes_truth_exactly(self):
        args = cli.build_parser().parse_args(["estimate", "--d", "2", "--p", "6", "--s", "2"])
        truth, cloud = cli._build_truth(vars(args))
        _, truth_mm, _ = cli._factor_context(truth, cloud, 2, "cholesky")
        perm = maximin_order(cloud).perm
        assert np.array_equal(truth_mm.omega, truth.omega[np.ix_(perm, perm)])
        assert np.array_equal(truth_mm.omega, truth_mm.omega.T)

    @pytest.mark.parametrize("factor", ["cholesky", "cholesky-star"])
    def test_factor_error_zero_for_exact_estimate(self, factor):
        # An estimate equal to the exact factor has error 0; a Krylov solve
        # on the zero operator would start from the zero vector.
        args = cli.build_parser().parse_args(["estimate", "--d", "2", "--p", "6", "--s", "2"])
        truth, cloud = cli._build_truth(vars(args))
        _, truth_mm, exact = cli._factor_context(truth, cloud, 2, factor)
        assert cli._factor_error(exact.copy(), exact, truth_mm) == 0.0

    def test_truth_norm_not_computed_in_setup(self):
        args = cli.build_parser().parse_args(["estimate", "--d", "2", "--p", "6", "--s", "2"])
        truth, _ = cli._build_truth(vars(args))
        assert "omega_norm" not in truth.__dict__

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

    def test_row_fields_match_columns(self):
        assert len(dataclasses.fields(ResultRow)) == len(CSV_COLUMNS)

    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "--seeds=-1"],
            ["estimate", "--seeds", "0,-3"],
            ["simulate", "--seeds=-1"],
        ],
    )
    def test_negative_seed_rejected_before_truth(self, monkeypatch, capsys, argv):
        def forbidden(cfg):
            raise AssertionError("truth built for an invalid configuration")

        monkeypatch.setattr(cli, "_build_truth", forbidden)
        assert run_cli(*argv, "--p", "6") == 2
        assert capsys.readouterr().err.startswith("error: seeds must be")

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

    @pytest.mark.parametrize("name", ["missing.cfg", "."])
    def test_unreadable_file_rejected(self, tmp_path, capsys, name):
        # A missing file and a directory both fail to read.
        assert run_cli("estimate", "--config", str(tmp_path / name)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config file")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "line,option",
        [("d=abc", "--d"), ("b=", "--b"), ("model=foo", "--model"), ("factor=qr", "--factor")],
    )
    def test_bad_value_rejected_like_flag(self, tmp_path, capsys, line, option):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        with pytest.raises(SystemExit) as exc:
            run_cli("estimate", "--config", str(cfg))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {option}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("line", ["scattered=maybe", "timing=", "scattered=on"])
    def test_malformed_boolean_rejected(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p=6\n" + line + "\n")
        assert run_cli("estimate", "--config", str(cfg)) == 2
        key = line.partition("=")[0]
        assert capsys.readouterr().err.startswith(f"error: {key} must be one of")

    def test_config_key_config_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"config={cfg}\n")
        assert run_cli("estimate", "--config", str(cfg)) == 2

    def test_negative_seed_in_file_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p=6\nseeds=-1\n")
        assert run_cli("estimate", "--config", str(cfg)) == 2
        assert capsys.readouterr().err.startswith("error: seeds must be")

    def test_file_run_matches_flag_run(self, tmp_path):
        flags = [
            "--model", "laplacian", "--d", "1", "--p", "10", "--s", "1",
            "--n", "300,600", "--seeds", "1,2", "--c1", "0.4", "--b", "3", "--scattered",
            "--save-estimates", str(tmp_path / "flag-est"),
        ]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# every key that the flags above set\n"
            "model = laplacian\nd=1\np=10\ns=1\nn=300,600\nseeds=1,2\nc1=0.4\nb=3\n"
            f"scattered=Yes\ntiming=false\nsave_estimates={tmp_path / 'file-est'}\n"
        )
        by_flags, by_file = tmp_path / "flags.csv", tmp_path / "file.csv"
        assert run_cli("estimate", *flags, "--out", str(by_flags)) == 0
        assert run_cli("estimate", "--config", str(cfg), "--out", str(by_file)) == 0
        assert by_file.read_bytes() == by_flags.read_bytes()
        saved = {f.name: f.read_bytes() for f in (tmp_path / "flag-est").iterdir()}
        assert len(saved) == 4
        assert {f.name: f.read_bytes() for f in (tmp_path / "file-est").iterdir()} == saved

    def test_p_list_key_under_scaling_study(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p_list=8,6\nn=200\nseeds=0\nb=3\n")
        by_flags, by_file = tmp_path / "flags.csv", tmp_path / "file.csv"
        argv = ["--n", "200", "--seeds", "0", "--b", "3"]
        assert run_cli("scaling-study", *argv, "--p-list", "8,6", "--out", str(by_flags)) == 0
        assert run_cli("scaling-study", "--config", str(cfg), "--out", str(by_file)) == 0
        assert by_file.read_bytes() == by_flags.read_bytes()
        assert len(by_file.read_text().splitlines()) == 2 + 2

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
