"""End-to-end tests for the command-line harness (run in-process via main)."""

import json
import logging
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import d2ptas.cli
import d2ptas.oracle
from d2ptas import __version__
from d2ptas.cli import (
    build_measure,
    generate_planted,
    ingest_csv,
    main,
    parse_domain,
    run_experiment,
    strip_timing,
    write_points_csv,
)
from d2ptas.divergences import (
    ItakuraSaito,
    KullbackLeibler,
    Mahalanobis,
    SquaredEuclidean,
)
from d2ptas.errors import (
    ConfigError,
    EmptyFile,
    ParseError,
    RaggedRows,
)
from d2ptas.ptas import Exhaustive, PtasConfig, find_k_median
from d2ptas.sampler import RngStream


@pytest.fixture
def four_point_file(tmp_path, four_point_line):
    path = tmp_path / "line.csv"
    write_points_csv(path, four_point_line)
    return str(path)


@pytest.fixture
def planted_file(tmp_path, planted):
    """The 300 distinct points of the planted fixture."""
    path = tmp_path / "planted.csv"
    write_points_csv(path, planted[0])
    return str(path)


@pytest.fixture
def forty_point_file(tmp_path, planted):
    """40 distinct points: too many for the paper preset's exhaustive search."""
    path = tmp_path / "forty.csv"
    write_points_csv(path, planted[0][:40])
    return str(path)


class TestIngest:
    def test_round_trip_is_bit_exact(self, tmp_path, gen):
        pts = gen.standard_normal((17, 3)) * 1e6
        path = tmp_path / "pts.csv"
        write_points_csv(path, pts)
        back = ingest_csv(path)
        np.testing.assert_array_equal(back, pts)

    def test_header_detected_and_skipped(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("x,y\n1.0,2.0\n3.0,4.0\n")
        np.testing.assert_array_equal(ingest_csv(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("\n1.0,2.0\n\n3.0,4.0\n\n")
        assert ingest_csv(path).shape == (2, 2)

    def test_ragged_rows_reported_with_line_number(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(RaggedRows, match="line 2"):
            ingest_csv(path)

    def test_bad_token_reported_with_line_number(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(ParseError, match="line 2.*'oops'"):
            ingest_csv(path)

    def test_empty_and_header_only_files(self, tmp_path):
        empty = tmp_path / "e.csv"
        empty.write_text("")
        with pytest.raises(EmptyFile):
            ingest_csv(empty)
        header_only = tmp_path / "ho.csv"
        header_only.write_text("x,y\n")
        with pytest.raises(EmptyFile):
            ingest_csv(header_only)

    def test_writer_emits_header(self, tmp_path):
        path = tmp_path / "w.csv"
        write_points_csv(path, [[1.5, 2.5]], header=["a", "b"])
        assert path.read_text().splitlines()[0] == "a,b"


class TestGeneratePlanted:
    def test_deterministic(self):
        a = generate_planted(3, 10, 2, 10.0, 1.0, RngStream(5))
        b = generate_planted(3, 10, 2, 10.0, 1.0, RngStream(5))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_shapes_and_labels(self):
        points, labels, centers = generate_planted(4, 7, 3, 8.0, 0.5, RngStream(6))
        assert points.shape == (28, 3)
        assert centers.shape == (4, 3)
        np.testing.assert_array_equal(labels, np.repeat(np.arange(4), 7))

    def test_centers_separated(self):
        _, _, centers = generate_planted(5, 2, 2, 10.0, 1.5, RngStream(7))
        diffs = centers[:, None, :] - centers[None, :, :]
        dists = np.sqrt((diffs ** 2).sum(axis=-1))
        assert dists[np.triu_indices(5, 1)].min() >= 15.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            generate_planted(0, 10, 2, 10.0, 1.0, RngStream(8))
        with pytest.raises(ConfigError):
            generate_planted(3, 10, 2, 10.0, -1.0, RngStream(8))
        # 50 centers 10 apart in [0, 500]: a random draw never fits them
        with pytest.raises(ConfigError, match="could not place 50 centers"):
            generate_planted(50, 10, 1, 10.0, 1.0, RngStream(8))
        with pytest.raises(TypeError):  # the attempt count is no keyword
            generate_planted(3, 10, 2, 10.0, 1.0, RngStream(8), max_attempts=0)
        for dim in (0, -1):
            with pytest.raises(ConfigError, match="dim >= 1"):
                generate_planted(1, 10, dim, 10.0, 1.0, RngStream(8))
        for separation, sigma in [(np.nan, 1.0), (np.inf, 1.0), (10.0, np.nan), (10.0, np.inf),
                                  (1e200, 1e200)]:
            with pytest.raises(ConfigError, match="positive"):
                generate_planted(3, 10, 2, separation, sigma, RngStream(8))

    @pytest.mark.parametrize("separation,sigma,match", [
        (1e-308, 1e308, "overflows"),      # a finite span, but points past the float range
        (1e-200, 1e-200, "nonzero"),       # a product that underflows to 0
    ])
    def test_a_scale_outside_the_float_range_is_refused(self, separation, sigma, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=match):
                generate_planted(3, 100, 2, separation, sigma, RngStream(1))

    def test_a_huge_separation_places_its_centers_without_overflow(self):
        """Gaps of 1e200 square past the float range; they are compared in
        units of the minimum distance instead."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            points, _, centers = generate_planted(3, 10, 2, 1e200, 1.0, RngStream(1))
        assert np.all(np.isfinite(points))
        gaps = (((centers[:, None, :] - centers[None, :, :]) / 1e200) ** 2).sum(axis=-1)
        assert gaps[np.triu_indices(3, 1)].min() >= 1.0


class TestMeasureSpelling:
    def test_parse_domain(self):
        assert parse_domain("0.1:0.9") == (0.1, 0.9)
        with pytest.raises(ConfigError):
            parse_domain("0.1-0.9")
        with pytest.raises(ConfigError):
            parse_domain("1:2:3")

    def test_sqeuclid(self):
        assert isinstance(build_measure("sqeuclid"), SquaredEuclidean)

    def test_generator_measures(self):
        kl = build_measure("kl", mu=0.25, domain=(0.2, 0.8))
        assert isinstance(kl, KullbackLeibler)
        assert kl.mu == 0.25
        isa = build_measure("itakura-saito")
        assert isinstance(isa, ItakuraSaito)

    def test_mahalanobis_from_file(self, tmp_path):
        matrix_path = tmp_path / "m.csv"
        write_points_csv(matrix_path, np.array([[2.0, 0.5], [0.5, 1.0]]))
        mah = build_measure(f"mahalanobis:{matrix_path}")
        assert isinstance(mah, Mahalanobis)
        np.testing.assert_allclose(mah.matrix, [[2.0, 0.5], [0.5, 1.0]])

    def test_spelling_errors(self):
        with pytest.raises(ConfigError):
            build_measure("mahalanobis")
        with pytest.raises(ConfigError):
            build_measure("mahalanobis:")
        with pytest.raises(ConfigError):
            build_measure("euclidean")


class TestEnumerationBudget:
    """The engine counts restarts * sum_{j<=k} menu^j subsets, where a node's
    menu is every subset of 1..M of min(N, distinct values) sample points."""

    def test_small_config_allowed(self, sq, planted):
        # menu 30 + C(30, 2) = 465 from N = 30; 8 * (465 + 465^2) subsets
        cfg = PtasConfig(k=2, epsilon=0.5, sample_size_N=30, subset_size_M=2,
                         subset_strategy=Exhaustive())
        assert find_k_median(planted[0][:40], sq, cfg, RngStream(1)).cost > 0.0

    def test_midsize_refusal_shows_exact_count(self, sq, planted):
        # menu 30 + C(30, 2) = 465 from N = 30; 10 * (465 + 465^2 + 465^3) subsets
        cfg = PtasConfig(k=3, epsilon=0.5, sample_size_N=30, subset_size_M=2, restarts=10,
                         subset_strategy=Exhaustive())
        with pytest.raises(ConfigError, match="refusing exhaustive search of 1007613150 subsets"):
            find_k_median(planted[0][:40], sq, cfg, RngStream(1))

    def test_paper_scale_refusal_shows_magnitude(self, forty_point_file):
        # 4 restarts * ((2^40 - 1) + (2^40 - 1)^2) subsets
        spec = {"input": forty_point_file, "k": 2, "measure": "sqeuclid", "preset": "paper"}
        with pytest.raises(ConfigError, match=r"about 10\^25 subsets"):
            run_experiment(spec)


class TestRunExperiment:
    def spec(self, path, **overrides):
        base = {"input": path, "k": 2, "measure": "sqeuclid", "seed": 3,
                "strategy": "exhaustive", "restarts": 2}
        base.update(overrides)
        return base

    def test_tiny_instance_report(self, four_point_file):
        report = run_experiment(self.spec(four_point_file))
        assert set(report) == {"spec", "results", "properties", "seed", "version"}
        assert report["version"] == __version__
        assert report["seed"] == 3
        results = report["results"]
        assert set(results) == {"ptas", "kmeanspp_lloyd", "oracle"}
        assert results["oracle"]["cost"] == 1.0
        assert results["ptas"]["cost"] == 1.0
        assert results["ptas"]["ratio"] == 1.0
        for entry in results.values():
            assert "seconds" in entry

    def test_large_instance_has_no_oracle_entry(self, tmp_path):
        points, _, _ = generate_planted(3, 20, 2, 10.0, 1.0, RngStream(9))
        path = tmp_path / "big.csv"
        write_points_csv(path, points)
        report = run_experiment(self.spec(str(path), k=3, strategy="random:20"))
        assert "oracle" not in report["results"]

    def test_reports_reproducible_modulo_timing(self, four_point_file):
        a = run_experiment(self.spec(four_point_file))
        b = run_experiment(self.spec(four_point_file))
        assert strip_timing(a) == strip_timing(b)
        assert "seconds" in a["results"]["ptas"]
        assert "seconds" not in strip_timing(a)["results"]["ptas"]

    def test_paper_preset_refused(self, forty_point_file):
        with pytest.raises(ConfigError, match="refusing"):
            run_experiment(self.spec(forty_point_file, preset="paper"))

    def test_spec_of_a_cluster_report_reproduces_it(self, planted_file, tmp_path, capsys):
        out = tmp_path / "cluster.json"
        assert main(["cluster", "--input", planted_file, "--k", "3", "--seed", "4",
                     "--strategy", "random:5", "--restarts", "3", "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        again = run_experiment(report["spec"])
        assert strip_timing(again)["results"] == strip_timing(report)["results"]


class TestLogging:
    def test_subcommands_and_restarts_log_at_info(self, four_point_file, caplog):
        with caplog.at_level(logging.INFO, logger="d2ptas"):
            assert main(["oracle", "--input", four_point_file, "--k", "2"]) == 0
            assert main(["cluster", "--input", four_point_file, "--k", "2", "--restarts", "2",
                         "--strategy", "random:4"]) == 0
            assert main(["cluster", "--input", four_point_file, "--k", "2", "--restarts", "2",
                         "--strategy", "exhaustive"]) == 0
        events = [(r.name, r.levelno, r.getMessage()) for r in caplog.records
                  if r.name.startswith("d2ptas")]
        assert {level for _, level, _ in events} == {logging.INFO}
        commands = [text for name, _, text in events if name == "d2ptas.cli"]
        assert [text.split(":")[0] for text in commands] == ["oracle", "cluster", "cluster"]
        assert all("exit code 0" in text for text in commands)
        restarts = [text for name, _, text in events if name == "d2ptas.ptas"]
        assert [text.split(":")[0] for text in restarts] == ["restart 0", "restart 1"] * 2
        assert all("strategy random:4" in text and "subsets 8, nodes 2" in text
                   for text in restarts[:2])
        # the two exhaustive restarts share one tree and still log their own counts
        assert restarts[2:] == [
            "restart 0: strategy exhaustive, cost 1, subsets 192, nodes 16",
            "restart 1: strategy exhaustive, cost 1, subsets 188, nodes 16",
        ]

    def test_nothing_is_logged_at_the_default_level(self, four_point_file, caplog):
        with caplog.at_level(logging.WARNING, logger="d2ptas"):
            assert main(["cluster", "--input", four_point_file, "--k", "2", "--restarts", "2",
                         "--strategy", "random:4"]) == 0
        assert not [r for r in caplog.records if r.name.startswith("d2ptas")]


class TestMainExitCodes:
    def test_generate_then_cluster_then_oracle(self, tmp_path, capsys):
        data = tmp_path / "planted.csv"
        report_path = tmp_path / "report.json"
        assert main(["generate", "--output", str(data), "--k", "2",
                     "--per-cluster", "6", "--seed", "11"]) == 0
        assert data.exists()
        assert (tmp_path / "planted.labels.csv").exists()
        assert (tmp_path / "planted.centers.csv").exists()

        assert main(["cluster", "--input", str(data), "--k", "2", "--seed", "11",
                     "--strategy", "random:10", "--restarts", "2",
                     "--output", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "ptas" in out and "kmeanspp_lloyd" in out
        report = json.loads(report_path.read_text())
        assert report["results"]["oracle"]["ratio"] == 1.0

    def test_oracle_subcommand_prints_gamma(self, four_point_file, capsys):
        assert main(["oracle", "--input", four_point_file, "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "optimal cost: 1" in out
        assert "gamma: 16" in out

    @pytest.mark.parametrize("k,tables", [(1, 0), (2, 1), (3, 1), (4, 1), (5, 0)])
    def test_oracle_builds_one_table(self, four_point_file, monkeypatch, tmp_path, k, tables):
        """One subset DP answers k and k - 1, with the bits of two lone runs;
        none runs at k = 1, one block, or once both counts reach the 4 points."""
        calls = []
        build = d2ptas.oracle._subset_dp
        monkeypatch.setattr(d2ptas.oracle, "_subset_dp",
                            lambda points, top, measure: calls.append(len(points))
                            or build(points, top, measure))
        out = tmp_path / "oracle.json"
        assert main(["oracle", "--input", four_point_file, "--k", str(k),
                     "--output", str(out)]) == 0
        assert calls == [4] * tables
        entry = json.loads(out.read_text())["results"]["oracle"]
        points, sq = ingest_csv(four_point_file), SquaredEuclidean()
        lone = d2ptas.oracle.optimal_bruteforce(points, k, sq)
        assert entry["cost"] == lone.optimal_cost
        assert entry["partition"] == lone.optimal_partition.tolist()
        assert entry["assignments_examined"] == lone.assignments_examined
        if k >= 2:
            assert entry["delta_km1"] == d2ptas.oracle.optimal_bruteforce(
                points, k - 1, sq).optimal_cost

    def test_properties_subcommand(self, capsys):
        assert main(["properties", "--measure", "sqeuclid", "--trials", "2000",
                     "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4

    def test_properties_follow_matrix_dimension(self, tmp_path, capsys):
        matrix_path = tmp_path / "m3.csv"
        write_points_csv(matrix_path, np.diag([2.0, 1.0, 0.5]))
        out = tmp_path / "props.json"
        assert main(["properties", "--measure", f"mahalanobis:{matrix_path}",
                     "--trials", "2000", "--dim", "5", "--seed", "4", "--output", str(out)]) == 0
        assert capsys.readouterr().out.count("PASS") == 4
        assert json.loads(out.read_text())["spec"]["dim"] == 3

    def test_seedbench_subcommand(self, four_point_file, capsys):
        assert main(["seedbench", "--input", four_point_file, "--k", "2",
                     "--trials", "3", "--strategy", "random:5", "--restarts", "2"]) == 0
        assert "wins or ties" in capsys.readouterr().out

    def test_seedbench_is_cluster_over_seeds(self, tmp_path, capsys):
        # unclustered points, so Lloyd's local optima differ from seed to seed
        path = tmp_path / "uniform.csv"
        write_points_csv(path, RngStream(13).generator.uniform(size=(60, 2)))
        flags = ["--input", str(path), "--k", "4", "--strategy", "random:5",
                 "--restarts", "4"]
        out = tmp_path / "bench.json"
        assert main(["seedbench", *flags, "--seed", "6", "--trials", "3",
                     "--output", str(out)]) == 0
        bench = json.loads(out.read_text())["results"]
        for s, seed in enumerate((6, 7, 8)):
            path = tmp_path / f"cluster-{seed}.json"
            assert main(["cluster", *flags, "--seed", str(seed), "--output", str(path)]) == 0
            cluster = json.loads(path.read_text())["results"]
            for method in ("ptas", "kmeanspp_lloyd"):
                assert bench[method]["per_seed_costs"][s] == cluster[method]["cost"]

    def test_seedbench_reads_and_solves_the_oracle_once(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "twelve.csv"
        write_points_csv(path, RngStream(14).generator.standard_normal((12, 2)))
        flags = ["--input", str(path), "--k", "3", "--strategy", "random:5", "--restarts", "2"]
        clusters = []
        for seed in (6, 7, 8):
            out = tmp_path / f"cluster-{seed}.json"
            assert main(["cluster", *flags, "--seed", str(seed), "--output", str(out)]) == 0
            clusters.append(json.loads(out.read_text())["results"])
        calls = {"oracle": 0, "ingest": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(d2ptas.cli, "optimal_bruteforce",
                            counted("oracle", d2ptas.cli.optimal_bruteforce))
        monkeypatch.setattr(d2ptas.cli, "ingest_csv", counted("ingest", d2ptas.cli.ingest_csv))
        out = tmp_path / "bench.json"
        assert main(["seedbench", *flags, "--seed", "6", "--trials", "3",
                     "--output", str(out)]) == 0
        assert calls == {"oracle": 1, "ingest": 1}
        bench = json.loads(out.read_text())["results"]
        for method in ("ptas", "kmeanspp_lloyd", "oracle"):
            assert bench[method]["per_seed_costs"] == [c[method]["cost"] for c in clusters]

    @pytest.mark.parametrize("command", ["cluster", "oracle", "properties", "seedbench"])
    def test_spec_rebuilds_its_measure(self, command, tmp_path, capsys):
        """Every report echoes mu and domain, so its spec rebuilds the measure."""
        path, out = tmp_path / "pos.csv", tmp_path / "report.json"
        write_points_csv(path, RngStream(8).generator.uniform(0.2, 0.8, size=(12, 2)))
        args = {
            "cluster": ["--input", str(path), "--k", "2", "--strategy", "random:5",
                        "--restarts", "2"],
            "oracle": ["--input", str(path), "--k", "2"],
            "properties": ["--trials", "1000"],
            "seedbench": ["--input", str(path), "--k", "2", "--trials", "2",
                          "--strategy", "random:5", "--restarts", "2"],
        }[command]
        assert main([command, *args, "--measure", "kl", "--mu", "0.02",
                     "--domain", "0.05:0.95", "--output", str(out)]) == 0
        spec = json.loads(out.read_text())["spec"]
        assert spec["command"] == command
        assert spec["mu"] == 0.02 and spec["domain"] == [0.05, 0.95]
        measure = build_measure(spec["measure"], mu=spec["mu"], domain=spec["domain"])
        assert measure.mu == 0.02 and measure.box == (0.05, 0.95)

    @pytest.mark.parametrize("command", ["cluster", "oracle", "seedbench"])
    def test_points_outside_the_domain_are_a_runtime_error(self, command, tmp_path, capsys):
        path = tmp_path / "zero.csv"
        path.write_text("0.0,0.5\n0.3,0.4\n0.6,0.7\n")
        assert main([command, "--input", str(path), "--k", "2", "--measure", "kl"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["cluster", "oracle"])
    def test_points_of_the_wrong_dimension_are_a_runtime_error(self, command, four_point_file,
                                                               tmp_path, capsys):
        """One-dimensional points against a 3 x 3 Mahalanobis matrix."""
        matrix_path = tmp_path / "m3.csv"
        write_points_csv(matrix_path, np.eye(3))
        assert main([command, "--input", four_point_file, "--k", "2",
                     "--measure", f"mahalanobis:{matrix_path}"]) == 1
        assert "error: measure is 3-dimensional" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--trials", "0"], ["--trials", "-1"], ["--dim", "0"],
                                       ["--dim", "-1"]])
    def test_properties_without_trials_or_dimensions_is_usage_error(self, flags, capsys):
        assert main(["properties", *flags]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and "PASS" not in captured.out

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_seedbench_without_trials_is_usage_error(self, trials, four_point_file, capsys):
        assert main(["seedbench", "--input", four_point_file, "--k", "2",
                     "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert "seedbench needs at least one trial" in captured.err
        assert "wins or ties" not in captured.out

    @pytest.mark.parametrize("dim", ["0", "-1"])
    def test_generate_without_dimensions_is_usage_error(self, dim, tmp_path, capsys):
        out = tmp_path / "g.csv"
        assert main(["generate", "--output", str(out), "--k", "1", "--dim", dim]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--separation", "nan"], ["--separation", "inf"],
                                       ["--sigma", "nan"], ["--sigma", "inf"]])
    def test_generate_with_a_non_finite_scale_is_usage_error(self, flags, tmp_path, capsys):
        out = tmp_path / "g.csv"
        assert main(["generate", "--output", str(out), *flags]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_generate_with_overflowing_points_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["generate", "--output", str(out), "--separation", "1e-308",
                         "--sigma", "1e308", "--seed", "1"]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input_file_is_runtime_error(self, tmp_path, capsys):
        code = main(["cluster", "--input", str(tmp_path / "nope.csv"), "--k", "2"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_measure_is_usage_error(self, four_point_file, capsys):
        assert main(["cluster", "--input", four_point_file, "--k", "2",
                     "--measure", "euclidean"]) == 2

    def test_ragged_csv_is_runtime_error(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        path.write_text("1.0,2.0\n3.0\n")
        assert main(["cluster", "--input", str(path), "--k", "1"]) == 1

    def test_paper_preset_is_usage_error(self, forty_point_file, capsys):
        assert main(["cluster", "--input", forty_point_file, "--k", "2",
                     "--preset", "paper"]) == 2
        assert "refusing" in capsys.readouterr().err

    def test_hopeless_exhaustive_search_is_usage_error(self, planted_file, capsys):
        assert main(["cluster", "--input", planted_file, "--k", "3",
                     "--strategy", "exhaustive"]) == 2
        assert "refusing exhaustive search of about 10^41 subsets" in capsys.readouterr().err

    def test_oracle_over_cap_is_runtime_error(self, tmp_path, capsys):
        pts = RngStream(10).generator.standard_normal((20, 2))
        path = tmp_path / "big.csv"
        write_points_csv(path, pts)
        assert main(["oracle", "--input", str(path), "--k", "2"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_argparse_usage_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["cluster", "--k", "2"])  # missing --input
        assert exc.value.code == 2

    def test_module_entry_point_runs_without_warnings(self):
        src = str(Path(d2ptas.cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "d2ptas", "--help"],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert "oracle" in done.stdout

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestReportSchema:
    COMMANDS = {
        "cluster": ["--k", "2", "--strategy", "random:5", "--restarts", "2"],
        "oracle": ["--k", "2"],
        "properties": ["--trials", "1000"],
        "seedbench": ["--k", "2", "--trials", "2", "--strategy", "random:5", "--restarts", "2"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_one_schema_for_every_subcommand(self, command, four_point_file, tmp_path, capsys):
        args = [command, *self.COMMANDS[command], "--seed", "5"]
        if command != "properties":
            args += ["--input", four_point_file]
        reports = []
        for run in range(2):
            path = tmp_path / f"{command}-{run}.json"
            assert main([*args, "--output", str(path)]) == 0
            reports.append(json.loads(path.read_text()))
        assert set(reports[0]) == {"spec", "results", "properties", "seed", "version"}
        assert reports[0]["spec"]["command"] == command
        assert reports[0]["seed"] == 5
        assert strip_timing(reports[0]) == strip_timing(reports[1])
