"""Command-line harness: subcommands, determinism, exit codes, verify suites."""

import dataclasses
import inspect
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gpprec import cli
from gpprec import estimator as estimator_module
from gpprec import serialization as ser
from gpprec import truth as truth_module
from gpprec import verify as verify_module
from gpprec.cholesky import assemble_U, assemble_U_star, exact_scales
from gpprec.cli import CSV_COLUMNS, ResultRow, main
from gpprec.errors import CapacityExceeded, InvalidInput, NumericalFailure
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

    def test_full_inverse_row_reports_the_side(self, capsys):
        # The rule's width clamps to p = 2, and --b 2 sets it: either way the
        # one block is the full inverse, and the row reports b = p.
        argv = ["--d", "1", "--p", "2", "--s", "1", "--n", "300", "--seeds", "0"]
        assert run_cli("estimate", *argv) == 0
        rule = capsys.readouterr().out
        assert run_cli("estimate", *argv, "--b", "2") == 0
        assert capsys.readouterr().out == rule
        row = rule.splitlines()[2].split(",")
        assert (row[7], row[8], row[12]) == ("2", "fallback_full_inverse", "")

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
        estimate = ser.parse_matrix(next(est_dir.glob("*seed3-estimate.txt")).read_text())
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

    def test_factor_rows_need_more_samples_than_variables(self, capsys):
        # Seven variables: N = 6 and N = 7 fail their rows before any draw,
        # as the one-block precision estimate does, and N = 8 runs.
        code = run_cli(
            "estimate", "--model", "laplacian", "--d", "1", "--p", "7", "--s", "1",
            "--n", "6,7,8,50", "--seeds", "0", "--factor", "cholesky",
        )
        assert code == 1
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[2:]]
        assert [(row[5], row[8], row[12]) for row in rows] == [
            ("6", "", "NotPositiveDefinite"),
            ("7", "", "NotPositiveDefinite"),
            ("8", "multiscale", ""),
            ("50", "multiscale", ""),
        ]

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
        u_hat = ser.parse_matrix(next(est_dir.glob("*seed3-estimate.txt")).read_text())
        truth = truth_module.build_lattice_precision(24, 1, 1)
        order = maximin_order(measure_cloud(lattice_points(truth.geometry), 1))
        levels = assign_levels(order)
        omega_mm = symmetrize(truth.omega[np.ix_(order.perm, order.perm)])
        exact = assemble(exact_scales(omega_mm, levels, 1))
        recomputed = np.linalg.norm(u_hat - exact, 2) / np.linalg.norm(exact, 2)
        assert abs(recomputed - emitted) <= 1e-10 * recomputed

    @pytest.mark.parametrize("factor", ["cholesky", "cholesky-star"])
    def test_factor_rows_do_not_read_block_width(self, tmp_path, factor):
        # Factor rows invert every scale's full sample covariance, so --b is
        # accepted but not read, and their b column reads 0.  A factor route
        # that runs the lattice-reduction scales will change this.
        rows = []
        for width in ([], ["--b", "3"]):
            out = tmp_path / f"rows{len(width)}.csv"
            code = run_cli(
                "estimate", "--model", "laplacian", "--d", "2", "--p", "6", "--s", "1",
                "--n", "400,800", "--seeds", "0,1", "--factor", factor, *width, "--out", str(out),
            )
            assert code == 0
            rows.append(out.read_text())
        assert rows[0] == rows[1]
        assert {row[7] for row in csv_rows(tmp_path / "rows2.csv")} == {"0"}

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
        # A Green's truth has no closed-form norm: its build takes the norms
        # of omega and sigma, one Lanczos solve each, and they serve every row.
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
        assert calls == [(7, 7), (7, 7)]

    def test_failed_truth_norm_stops_run_at_build(self, monkeypatch, capsys):
        def failing(a):
            raise NumericalFailure("Lanczos spectral norm failed")

        monkeypatch.setattr(truth_module, "spectral_norm", failing)
        code = run_cli(
            "estimate", "--model", "matern", "--d", "1", "--p", "7",
            "--n", "1000,2000", "--seeds", "0,1",
        )
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: Lanczos spectral norm failed")

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

    def test_maximin_truth_factors_its_own_covariance(self):
        # A Matern truth keeps its build's factor of sigma; the permuted truth
        # that dataclasses.replace makes must factor its own covariance.
        truth, cloud = cli._build_truth({"model": "matern", "d": 2, "p": 4, "s": 1})
        assert np.array_equal(truth.sigma_factor, cholesky_lower(truth.covariance))
        _, _, truth_mm = cli._maximin_truth(truth, cloud)
        assert not np.array_equal(truth_mm.covariance, truth.covariance)
        assert np.array_equal(truth_mm.sigma_factor, cholesky_lower(truth_mm.covariance))

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
        assert cli._factor_error(exact.copy(), exact, truth_mm, factor == "cholesky") == 0.0

    def test_triangular_factor_error_matches_dense(self):
        # Two triangular products give the dense operator's norm to roundoff.
        args = cli.build_parser().parse_args(["estimate", "--d", "2", "--p", "8", "--s", "2"])
        truth, cloud = cli._build_truth(vars(args))
        _, truth_mm, exact = cli._factor_context(truth, cloud, 2, "cholesky")
        noise = np.random.Generator(np.random.Philox(key=1)).standard_normal(exact.shape)
        u_hat = exact + 1e-3 * np.triu(noise)
        dense = cli._factor_error(u_hat, exact, truth_mm, upper=False)
        triangular = cli._factor_error(u_hat, exact, truth_mm, upper=True)
        assert dense > 0
        assert abs(triangular - dense) <= 1e-12 * dense

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
        "argv, message",
        [
            (["estimate", "--seeds=-1"], "seeds must be"),
            (["estimate", "--seeds", "0,-3"], "seeds must be"),
            (["simulate", "--seeds=-1"], "seeds must be"),
            (["estimate", "--b", "0"], "b must be a positive integer, got 0"),
            (["estimate", "--model", "matern", "--d", "2", "--b", "-1"], "b must be"),
            (["scaling-study", "--p-list", "8,8"], "p_list must be"),
            (["estimate", "--n", "200,200"], "n must be"),
            # Philox keys lie in [0, 2**128): a seed above it, and one whose
            # padding seed, seed + _PAD_SEED, is above it.
            (["estimate", "--seeds", str(2**128)], "seeds must be"),
            (["estimate", "--scattered", "--seeds", str(2**128 - 1)], "seeds must be"),
            (["simulate", "--seeds", f"0,{2**128 - cli._PAD_SEED}"], "seeds must be"),
            # Factor rows never pad, so they cannot honour --scattered.
            (["estimate", "--factor", "cholesky", "--scattered"], "--scattered applies"),
            (["simulate", "--factor", "cholesky-star", "--scattered"], "--scattered applies"),
        ],
        ids=[f"argv{i}" for i in range(12)],
    )
    def test_negative_seed_rejected_before_truth(self, monkeypatch, capsys, argv, message):
        def forbidden(cfg):
            raise AssertionError("truth built for an invalid configuration")

        monkeypatch.setattr(cli, "_build_truth", forbidden)
        assert run_cli(*argv, "--p", "6") == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_largest_seed_runs(self, tmp_path):
        # Its padding seed is 2**128 - 1, the largest Philox key.
        seed = str(2**128 - 1 - cli._PAD_SEED)
        argv = ONE_DRAW_CONFIGS["scattered"] + ["--n", "300", "--seeds", seed]
        assert run_cli("estimate", *argv, "--out", str(tmp_path / "rows.csv")) == 0
        assert csv_rows(tmp_path / "rows.csv")[0][6] == seed

    @pytest.mark.parametrize(
        "argv, vertices",
        [
            (["--model", "matern", "--d", "2", "--p", "70"], 70**2),
            # Green's truth is built on the fine grid of side 4 (p + 1) - 1.
            (["--model", "green", "--d", "2", "--p", "300"], 1203**2),
            (["--model", "green", "--d", "1", "--p", "1024", "--scattered"], 4099),
        ],
    )
    def test_oversized_truth_refused_before_sites(self, monkeypatch, capsys, argv, vertices):
        def forbidden(p, d, snap_fine_m):
            raise AssertionError("site cloud built for a truth above the cap")

        monkeypatch.setattr(cli, "_jittered_grid", forbidden)
        assert run_cli("estimate", *argv) == 2
        assert capsys.readouterr().err == (
            f"error: problem has {vertices} vertices, above the cap of 4096\n"
        )

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

    @pytest.mark.parametrize("factor", ["cholesky", "cholesky-star"])
    def test_factor_rows_run_where_a_dyadic_band_is_skipped(self, capsys, factor):
        # The three jittered Matern sites' selection distances skip a dyadic
        # band.  The skipped band gets no level, so every scale has sites and
        # both factor routes run.
        code = run_cli(
            "estimate", "--factor", factor, "--model", "matern", "--d", "1", "--p", "3",
            "--n", "100", "--seeds", "0,1",
        )
        assert code == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[2:]]
        assert [(row[8], row[12]) for row in rows] == [("multiscale", "")] * 2
        assert all(0.0 < float(row[9]) < 1.0 for row in rows)


def spy(monkeypatch, name):
    """Record the positional arguments of every call of ``cli.<name>``."""
    calls = []
    fn = getattr(cli, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(cli, name, recording)
    return calls


def csv_rows(path):
    return [line.split(",") for line in Path(path).read_text().splitlines()[2:]]


ONE_DRAW_CONFIGS = {
    "lattice": ["--model", "laplacian", "--d", "1", "--p", "12", "--s", "1", "--b", "3"],
    "scattered": ["--model", "matern", "--d", "1", "--p", "40", "--b", "4"],
    "factor": [
        "--model", "laplacian", "--d", "1", "--p", "7", "--s", "1", "--factor", "cholesky",
    ],
}


class TestOneDrawPerSeed:
    """Each seed's rows read prefixes of one draw at the run's largest N."""

    @pytest.mark.parametrize("kind", sorted(ONE_DRAW_CONFIGS))
    def test_one_draw_and_padding_per_seed(self, monkeypatch, tmp_path, kind):
        # One draw per seed.  Lattice rows read prefixes of one sample
        # array; scattered and factor rows read one streamed draw, its row
        # blocks passed on as they come: on scattered runs padded once, with
        # the seed's padding stream, into the tiles of both sizes, on factor
        # runs summed once into the covariances of both sizes.  Each row
        # estimates from its own tiles or covariance.
        samples = spy(monkeypatch, "sample")
        streams = spy(monkeypatch, "sample_blocks")
        passes = spy(monkeypatch, "padded_tiles")
        covariances = spy(monkeypatch, "scale_covariances")
        precision_rows = spy(monkeypatch, "estimate_precision")
        scale_rows = spy(monkeypatch, "estimate_scales")
        embeddings = spy(monkeypatch, "build_embedding")
        out = tmp_path / "rows.csv"
        argv = ONE_DRAW_CONFIGS[kind] + ["--n", "1000,2000", "--seeds", "0,1"]
        assert run_cli("estimate", *argv, "--out", str(out)) == 0
        draws = [(2000, 0), (2000, 1)]
        streamed = kind != "lattice"
        assert [args[1:] for args in samples] == ([] if streamed else draws)
        assert [args[1:] for args in streams] == (draws if streamed else [])
        assert all(inspect.isgenerator(args[0]) for args in passes + covariances)
        scattered = kind == "scattered"
        want = [(cli._PAD_SEED + seed, [1000, 2000]) for seed in (0, 1)]
        assert [(args[2], args[4]) for args in passes] == (want if scattered else [])
        want = [[1000, 2000]] * 2 if kind == "factor" else []
        assert [args[2] for args in covariances] == want
        # Lattice rows estimate from prefixes of the sample array, scattered
        # rows from their padded tiles.
        read = [len(args[0]) if kind == "lattice" else args[0].n for args in precision_rows]
        want = [n for _ in (0, 1) for n in (2000, 1000)] if kind != "factor" else []
        assert read == want
        want = [n for _ in (0, 1) for n in (2000, 1000)] if kind == "factor" else []
        assert [args[0].n for args in scale_rows] == want
        assert len(embeddings) == (1 if scattered else 0)
        assert [(row[5], row[6]) for row in csv_rows(out)] == [
            ("1000", "0"), ("1000", "1"), ("2000", "0"), ("2000", "1"),
        ]

    @pytest.mark.parametrize("kind", sorted(ONE_DRAW_CONFIGS))
    def test_each_size_planned_once_per_run(self, monkeypatch, capsys, kind):
        # The data-free refusals are made once per size, not once per row.
        plans = [spy(monkeypatch, "plan_estimate"), spy(monkeypatch, "plan_scales")]
        argv = ONE_DRAW_CONFIGS[kind] + ["--n", "1000,2000", "--seeds", "0,1"]
        assert run_cli("estimate", *argv) == 0
        assert sorted(args[1] for args in plans[0] + plans[1]) == [1000, 2000]

    def test_scattered_tiles_are_not_planned_again(self, monkeypatch, capsys):
        # The CLI plans each size once per run and padded_tiles once per
        # seed's pass; the estimates read the width their tiles carry, so
        # the run makes 2 + 3 * 2 plans.
        calls = []
        original = estimator_module.plan_estimate

        def counting(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "gpprec" and vars(module).get("plan_estimate") is original:
                monkeypatch.setattr(module, "plan_estimate", counting)
        argv = ["--d", "1", "--p", "40", "--s", "1", "--b", "3", "--scattered"]
        assert run_cli("estimate", *argv, "--n", "200,400", "--seeds", "0,1,2") == 0
        assert sorted(calls) == [200] * 4 + [400] * 4

    @pytest.mark.parametrize("kind", sorted(ONE_DRAW_CONFIGS))
    def test_rows_match_single_size_runs(self, tmp_path, kind):
        # The largest-N rows are those of a run at that N alone, byte for
        # byte; a smaller N's error moves only by the roundoff of the
        # triangular product over more rows.
        argv = ONE_DRAW_CONFIGS[kind] + ["--seeds", "0,1"]
        assert run_cli("estimate", *argv, "--n", "1000,2000", "--out", str(tmp_path / "m")) == 0
        multi = csv_rows(tmp_path / "m")
        for n in (1000, 2000):
            single_out = tmp_path / f"n{n}"
            assert run_cli("estimate", *argv, "--n", str(n), "--out", str(single_out)) == 0
            single = csv_rows(single_out)
            got = [row for row in multi if row[5] == str(n)]
            if n == 2000:
                assert got == single
                continue
            for a, b in zip(got, single):
                assert a[:9] + a[10:] == b[:9] + b[10:]
                assert abs(float(a[9]) - float(b[9])) <= 1e-12 * float(b[9])

    def test_scattered_multi_size_rerun_byte_identical(self, tmp_path):
        argv = ONE_DRAW_CONFIGS["scattered"] + ["--n", "300,600,1000", "--seeds", "2,0"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("estimate", *argv, "--out", str(out1)) == 0
        assert run_cli("estimate", *argv, "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_scattered_rows_without_width_match_single_size_runs(self, tmp_path):
        # Without --b the rule gives each N its own width (b = 13 and 14
        # here), so the seed's one padded pass fills tiles of two schemes.
        # Every row equals a run at its N alone byte for byte: this truth's
        # 300-row draw rounds as the prefix of its 1000-row draw.
        argv = ["--model", "green", "--d", "1", "--p", "40", "--scattered", "--seeds", "0,1"]
        assert run_cli("estimate", *argv, "--n", "300,1000", "--out", str(tmp_path / "m")) == 0
        multi = csv_rows(tmp_path / "m")
        assert sorted({row[7] for row in multi}) == ["13", "14"]
        for n in (300, 1000):
            assert run_cli("estimate", *argv, "--n", str(n), "--out", str(tmp_path / "s")) == 0
            assert [row for row in multi if row[5] == str(n)] == csv_rows(tmp_path / "s")

    def test_size_refused_row_fails_alone(self, tmp_path):
        # The 10-sample row is refused (LocalSingular) and left out of the
        # seed's padded pass; the other rows are those of a run without it.
        argv = ONE_DRAW_CONFIGS["scattered"] + ["--seeds", "0,1"]
        out, ref = tmp_path / "with.csv", tmp_path / "without.csv"
        assert run_cli("estimate", *argv, "--n", "10,300,600", "--out", str(out)) == 1
        assert run_cli("estimate", *argv, "--n", "300,600", "--out", str(ref)) == 0
        rows = csv_rows(out)
        assert [(row[5], row[12]) for row in rows[:2]] == [("10", "LocalSingular")] * 2
        assert rows[2:] == csv_rows(ref)

    @pytest.mark.parametrize("kind", sorted(ONE_DRAW_CONFIGS))
    def test_refused_row_draws_nothing(self, monkeypatch, capsys, kind):
        # The small rows are refused before any draw: the precision rows for
        # windows of 12 or more vertices, the factor rows for a 7-column
        # scale.  The seed's one draw is made by its 500-sample row.
        small, error = {"factor": ("5", "NotPositiveDefinite")}.get(kind, ("10", "LocalSingular"))
        draws = spy(monkeypatch, "sample_blocks" if kind != "lattice" else "sample")
        argv = ONE_DRAW_CONFIGS[kind] + ["--n", f"{small},500", "--seeds", "0,1", "--timing"]
        assert run_cli("estimate", *argv) == 1
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[2:]]
        assert [(row[5], row[12]) for row in rows] == [
            (small, error), (small, error), ("500", ""), ("500", ""),
        ]
        assert [args[1:] for args in draws] == [(500, 0), (500, 1)]

    def test_data_free_refusals_draw_nothing(self, monkeypatch, capsys):
        def forbidden(*args):
            raise AssertionError("a refused row drew its sample")

        monkeypatch.setattr(cli, "sample", forbidden)
        monkeypatch.setattr(cli, "sample_blocks", forbidden)
        # The one-block width (log(N * kappa) = log(9) clamps to p = 2), whose
        # window of 4 vertices outnumbers the samples, then an explicit width
        # above the side.
        assert run_cli("estimate", "--d", "2", "--p", "2", "--n", "3", "--seeds", "0,1") == 1
        errors = [line.split(",")[12] for line in capsys.readouterr().out.splitlines()[2:]]
        assert errors == ["LocalSingular", "LocalSingular"]
        assert run_cli("estimate", "--p", "4", "--b", "5", "--n", "50") == 1
        assert capsys.readouterr().out.splitlines()[2].split(",")[12] == "InvalidInput"
        # A factor row with fewer samples than the columns of a scale.
        argv = ONE_DRAW_CONFIGS["factor"] + ["--n", "5"]
        assert run_cli("estimate", *argv) == 1
        assert capsys.readouterr().out.splitlines()[2].split(",")[12] == "NotPositiveDefinite"

    def test_refused_matching_fails_every_row(self, monkeypatch, capsys):
        def refused(cloud, c1):
            raise CapacityExceeded("target lattice above the cap")

        monkeypatch.setattr(cli, "build_embedding", refused)
        samples = spy(monkeypatch, "sample")
        streams = spy(monkeypatch, "sample_blocks")
        argv = ONE_DRAW_CONFIGS["scattered"] + ["--n", "300,600", "--seeds", "0,1"]
        assert run_cli("estimate", *argv) == 1
        rows = capsys.readouterr().out.splitlines()[2:]
        assert [row.split(",")[12] for row in rows] == ["CapacityExceeded"] * 4
        assert samples == streams == []


STREAMED_CONFIGS = {
    "scattered": ["--model", "matern", "--d", "1", "--p", "200", "--b", "4"],
    "factor": [
        "--model", "laplacian", "--d", "1", "--p", "200", "--s", "1", "--factor", "cholesky",
    ],
}


@pytest.mark.parametrize("kind", sorted(STREAMED_CONFIGS))
def test_streamed_pass_holds_no_draw(tmp_path, kind):
    # A 30 000-row seed on 200 sites: its draw would be 48 MB, but the pass
    # holds a few row blocks of a few MiB each (the draw's two 2 MiB slots,
    # and on scattered runs the padding's), so the traced peak of the whole run
    # stays below half of one (N, sites) array.
    n, sites = 30_000, 200
    argv = STREAMED_CONFIGS[kind] + ["--n", str(n), "--seeds", "0"]
    tracemalloc.start()
    try:
        code = run_cli("estimate", *argv, "--out", str(tmp_path / "rows.csv"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= n * sites * 8 / 2


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

    def test_repeated_sizes_in_file_rejected(self, tmp_path, capsys, monkeypatch):
        def forbidden(cfg):
            raise AssertionError("truth built for an invalid configuration")

        monkeypatch.setattr(cli, "_build_truth", forbidden)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p=6\nn=200,200\n")
        assert run_cli("estimate", "--config", str(cfg)) == 2
        assert capsys.readouterr().err.startswith("error: n must be")

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


    def test_sample_files_are_the_rows_estimate_reads(self, tmp_path, monkeypatch):
        # Every file of a seed is a prefix of the seed's one draw at the
        # largest N, the very rows the estimate rows of that seed read: the
        # lattice rows' sample array, the row blocks that scattered and
        # factor rows stream (factor rows in maximin order).
        for kind in sorted(ONE_DRAW_CONFIGS):
            with monkeypatch.context() as patch:
                self._check_sample_files(tmp_path / kind, patch, kind)

    @staticmethod
    def _check_sample_files(tmp_path, monkeypatch, kind):
        common = ONE_DRAW_CONFIGS[kind] + ["--n", "50,120", "--seeds", "3"]
        assert run_cli("simulate", *common, "--out", str(tmp_path)) == 0
        assert (kind == "factor") == any(tmp_path.glob("*-ordering.txt"))
        read = {}
        if kind == "lattice":
            estimate = cli.estimate_precision

            def recording(data, shape, config):
                read[data.shape[0]] = data
                return estimate(data, shape, config)

            monkeypatch.setattr(cli, "estimate_precision", recording)
        else:
            blocks = cli.sample_blocks

            def recording(truth, n, seed):
                stream = list(map(np.copy, blocks(truth, n, seed)))
                read[n] = np.concatenate(stream)
                return iter(stream)

            monkeypatch.setattr(cli, "sample_blocks", recording)
        assert run_cli("estimate", *common, "--out", str(tmp_path / "rows.csv")) == 0
        assert sorted(read) == ([50, 120] if kind == "lattice" else [120])
        for n in (50, 120):
            path = next(tmp_path.glob(f"*-samples-n{n}-seed3.txt"))
            stored = ser.parse_samples(path.read_text())
            assert np.array_equal(stored, read[120][:n])
            if kind == "lattice":
                assert np.array_equal(stored, read[n])


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

    def test_injected_asymmetry_fails(self, monkeypatch, capsys):
        # Negative control: the symmetry suite fails an asymmetric estimate.
        exact = verify_module.estimate_precision

        def asymmetric(*args, **kwargs):
            est = exact(*args, **kwargs)
            matrix = est.matrix.copy()
            matrix[0, 1] += 1.0
            return dataclasses.replace(est, matrix=matrix)

        monkeypatch.setattr(verify_module, "estimate_precision", asymmetric)
        assert run_cli("verify", "--suite", "symmetry") == 1
        assert "FAIL" in capsys.readouterr().out

    def test_injection_option_is_unknown(self, capsys):
        with pytest.raises(SystemExit) as exited:
            run_cli("verify", "--inject-asymmetry")
        assert exited.value.code == 2
        assert "unrecognized arguments: --inject-asymmetry" in capsys.readouterr().err

    def test_suite_filter(self, capsys):
        assert run_cli("verify", "--suite", "ols") == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1
        assert out[0].startswith("ols")

    def test_results_reusable_in_process(self):
        results = run_suites(["block_inverse", "ols"])
        assert all(r.passed for r in results)

    def test_unknown_suite_refused_before_any_runs(self, monkeypatch):
        def forbidden():
            raise AssertionError("a suite ran before an unknown name was refused")

        monkeypatch.setitem(verify_module.SUITES, "perturbation", forbidden)
        with pytest.raises(InvalidInput, match="unknown suites \\['nope'\\]"):
            run_suites(["perturbation", "nope"])

    def test_csv_report(self, tmp_path, capsys):
        out = tmp_path / "suites.csv"
        assert run_cli("verify", "--suite", "symmetry", "--out", str(out)) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[1] == "suite,passed,detail"
        assert lines[2].startswith("symmetry,1,")


class TestOutputPaths:
    """An output path the run cannot write is refused before any work."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "--out", "{tmp}/missing/rows.csv"],
            ["estimate", "--out", "{tmp}"],
            ["estimate", "--out", "{tmp}/file/rows.csv"],
            ["scaling-study", "--out", "{tmp}/missing/rows.csv"],
            ["scaling-study", "--out", "{tmp}"],
            ["estimate", "--save-estimates", "{tmp}/file"],
            ["scaling-study", "--save-estimates", "{tmp}/file/estimates"],
            ["simulate", "--out", "{tmp}/file"],
            ["simulate", "--out", "{tmp}/file/truth"],
        ],
        ids=[f"argv{i}" for i in range(9)],
    )
    def test_refused_before_truth(self, monkeypatch, tmp_path, capsys, argv):
        def forbidden(cfg):
            raise AssertionError("truth built for an unwritable output")

        monkeypatch.setattr(cli, "_build_truth", forbidden)
        (tmp_path / "file").write_text("")
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert run_cli(*argv, "--p", "6", "--n", "200") == 2
        assert capsys.readouterr().err.startswith(f"error: {argv[1]} must name a writable ")

    @pytest.mark.parametrize("name", ["missing/suites.csv", "."])
    def test_verify_refused_before_suites(self, monkeypatch, tmp_path, capsys, name):
        def forbidden(names):
            raise AssertionError("suites run for an unwritable output")

        monkeypatch.setattr(cli, "run_suites", forbidden)
        assert run_cli("verify", "--out", str(tmp_path / name)) == 2
        assert capsys.readouterr().err.startswith("error: --out must name a writable file")

    def test_unwritable_directory_refused(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(os, "access", lambda path, mode: False)
        assert run_cli("estimate", "--p", "6", "--out", str(tmp_path / "rows.csv")) == 2
        assert "--out must name a writable file" in capsys.readouterr().err

    def test_existing_file_and_new_directories_accepted(self, tmp_path):
        out, saved = tmp_path / "rows.csv", tmp_path / "a" / "b"
        out.write_text("stale\n")
        argv = ["--d", "1", "--p", "6", "--n", "200"]
        assert run_cli("estimate", *argv, "--out", str(out), "--save-estimates", str(saved)) == 0
        assert out.read_text().startswith(cli.CSV_SCHEMA)
        assert len(list(saved.iterdir())) == 1
        assert run_cli("simulate", *argv, "--out", str(tmp_path / "c" / "d")) == 0
        assert (tmp_path / "c" / "d").is_dir()


class TestTiming:
    def test_timing_fills_wall_ms(self, capsys):
        code = run_cli(
            "estimate", "--timing", "--model", "laplacian", "--d", "1", "--p", "10", "--s", "1",
            "--n", "300", "--seeds", "0",
        )
        assert code == 0
        row = capsys.readouterr().out.splitlines()[2].split(",")
        assert float(row[11]) > 0.0
