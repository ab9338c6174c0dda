"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import CIPHER_PRESETS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_estimate_defaults(self):
        args = build_parser().parse_args(["estimate"])
        assert args.cipher == "geffe-tiny"
        assert args.method == "tabu"

    def test_unknown_cipher_rejected_at_runtime(self):
        with pytest.raises(SystemExit):
            main(["generate", "--cipher", "enigma"])


class TestCommands:
    def test_list_ciphers(self, capsys):
        assert main(["list-ciphers"]) == 0
        output = capsys.readouterr().out
        for name in CIPHER_PRESETS:
            assert name in output

    def test_generate_writes_dimacs(self, tmp_path, capsys):
        out = tmp_path / "instance.cnf"
        assert main(["generate", "--cipher", "geffe-tiny", "--seed", "1", "--output", str(out)]) == 0
        assert out.exists()
        text = out.read_text()
        assert text.startswith("c") or text.startswith("p")
        assert "p cnf" in text

    def test_generate_without_output(self, capsys):
        assert main(["generate", "--cipher", "geffe-tiny"]) == 0
        assert "start set" in capsys.readouterr().out

    def test_estimate_command(self, capsys):
        code = main(
            [
                "estimate",
                "--cipher",
                "geffe-tiny",
                "--seed",
                "1",
                "--sample-size",
                "10",
                "--max-evaluations",
                "8",
                "--cores",
                "4",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "F_best" in output
        assert "X_best" in output
        assert "predicted on 4 cores" in output

    def test_solve_command_with_explicit_decomposition(self, capsys):
        from repro.ciphers import Geffe
        from repro.problems import make_inversion_instance

        instance = make_inversion_instance(Geffe.tiny(), seed=1)
        decomposition = ",".join(str(v) for v in instance.start_set[:5])
        code = main(
            [
                "solve",
                "--cipher",
                "geffe-tiny",
                "--seed",
                "1",
                "--decomposition",
                decomposition,
                "--cores",
                "4",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "sub-problems" in output
        assert "makespan" in output

    def test_solve_command_estimates_when_no_decomposition(self, capsys):
        code = main(
            [
                "solve",
                "--cipher",
                "geffe-tiny",
                "--seed",
                "2",
                "--sample-size",
                "10",
                "--max-evaluations",
                "6",
                "--decomposition-size",
                "8",
            ]
        )
        assert code == 0
        assert "solved" in capsys.readouterr().out

    def test_solve_family_size_guard(self):
        from repro.ciphers import Geffe
        from repro.problems import make_inversion_instance

        instance = make_inversion_instance(Geffe(), seed=0)
        decomposition = ",".join(str(v) for v in instance.start_set)
        with pytest.raises(SystemExit):
            main(
                [
                    "solve",
                    "--cipher",
                    "geffe",
                    "--seed",
                    "0",
                    "--decomposition",
                    decomposition,
                    "--max-family-bits",
                    "10",
                ]
            )


class TestNewCommands:
    def test_simplify_command(self, capsys):
        code = main(["simplify", "--cipher", "geffe-tiny", "--seed", "1"])
        assert code == 0
        output = capsys.readouterr().out
        assert "vars" in output
        assert "eliminated" in output

    def test_simplify_writes_dimacs(self, tmp_path, capsys):
        target = tmp_path / "simplified.cnf"
        code = main(
            ["simplify", "--cipher", "geffe-tiny", "--seed", "1", "--output", str(target)]
        )
        assert code == 0
        assert target.exists()
        assert target.read_text().startswith("c") or "p cnf" in target.read_text()

    @pytest.mark.parametrize("technique", ["guiding-path", "scattering", "cube-and-conquer"])
    def test_partition_command(self, technique, capsys):
        code = main(
            [
                "partition",
                "--cipher",
                "geffe-tiny",
                "--seed",
                "2",
                "--technique",
                technique,
                "--parts",
                "4",
                "--solve",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "solved" in output
        assert "satisfiable" in output

    def test_portfolio_command(self, capsys):
        code = main(["portfolio", "--cipher", "geffe-tiny", "--seed", "3", "--members", "3"])
        assert code == 0
        output = capsys.readouterr().out
        assert "portfolio of 3" in output
        assert "SAT" in output

    def test_estimate_accepts_new_methods(self, capsys):
        code = main(
            [
                "estimate",
                "--cipher",
                "geffe-tiny",
                "--seed",
                "1",
                "--method",
                "hillclimb",
                "--sample-size",
                "6",
                "--max-evaluations",
                "10",
            ]
        )
        assert code == 0
        assert "hillclimb" in capsys.readouterr().out

    def test_bench_writes_trajectory_file(self, tmp_path, capsys):
        import json

        code = main(
            [
                "bench",
                "--cipher",
                "geffe-tiny",
                "--seed",
                "1",
                "--decomposition-size",
                "5",
                "--sample-size",
                "10",
                "--verify-batch",
                "8",
                "--output-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "speedup" in output
        assert "statuses agree: True" in output
        bench_files = list(tmp_path.glob("BENCH_*.json"))
        assert len(bench_files) == 1
        record = json.loads(bench_files[0].read_text())
        assert record["kind"] == "montecarlo-estimation-bench"
        assert record["statuses_agree"] is True
        assert record["speedup"] is not None and record["speedup"] > 0
        assert record["batch_keystream"]["matches_scalar"] is True
        trajectory = record["trajectory"]
        assert trajectory[-1]["n"] == 10
        assert trajectory[-1]["value"] == pytest.approx(record["engine"]["value"])

    def test_bench_without_baseline(self, tmp_path, capsys):
        code = main(
            [
                "bench",
                "--cipher",
                "geffe-tiny",
                "--seed",
                "2",
                "--decomposition-size",
                "4",
                "--sample-size",
                "5",
                "--no-baseline",
                "--output-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert "speedup" not in capsys.readouterr().out

    def test_bench_rejects_bad_decomposition_size(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "bench",
                    "--cipher",
                    "geffe-tiny",
                    "--decomposition-size",
                    "0",
                    "--output-dir",
                    str(tmp_path),
                ]
            )


class TestSimplifyCLI:
    """PR 5: the reworked simplify sub-command (DIMACS in/out, clean errors)."""

    def test_instance_mode_prints_reduction_stats(self, capsys):
        assert main(["simplify", "--cipher", "bivium-tiny", "--seed", "1"]) == 0
        output = capsys.readouterr().out
        assert "vars" in output and "eliminated" in output
        assert "reconstruction stack" in output

    def test_dimacs_input_round_trip(self, tmp_path, capsys):
        source = tmp_path / "in.cnf"
        source.write_text("p cnf 4 3\n1 2 0\n-1 2 3 0\n3 4 0\n")
        target = tmp_path / "out.cnf"
        stats = tmp_path / "stats.json"
        assert main([
            "simplify", "--input", str(source), "--frozen", "1,2",
            "--output", str(target), "--stats-json", str(stats),
        ]) == 0
        assert target.exists()
        assert "p cnf" in target.read_text()
        import json as _json

        record = _json.loads(stats.read_text())
        assert record["clauses_before"] == 3

    def test_malformed_dimacs_exits_with_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cnf"
        bad.write_text("p cnf 3 1\n1 two 0\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["simplify", "--input", str(bad)])
        assert "malformed DIMACS" in str(excinfo.value)

    def test_strict_header_mismatch_exits_with_clean_error(self, tmp_path):
        bad = tmp_path / "bad.cnf"
        bad.write_text("p cnf 2 5\n1 2 0\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["simplify", "--input", str(bad), "--strict"])
        assert "malformed DIMACS" in str(excinfo.value)

    def test_missing_input_file_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["simplify", "--input", str(tmp_path / "nope.cnf")])
        assert "not found" in str(excinfo.value)

    def test_frozen_variable_out_of_range_exits_with_value_error_text(self, tmp_path):
        source = tmp_path / "in.cnf"
        source.write_text("p cnf 3 2\n1 2 0\n-1 3 0\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["simplify", "--input", str(source), "--frozen", "1,9"])
        assert "frozen variables [9]" in str(excinfo.value)

    def test_unparsable_frozen_list_exits_cleanly(self, tmp_path):
        source = tmp_path / "in.cnf"
        source.write_text("p cnf 2 1\n1 2 0\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["simplify", "--input", str(source), "--frozen", "1;2"])
        assert "--frozen" in str(excinfo.value)

    def test_unknown_preprocessor_name_exits_cleanly(self, tmp_path):
        source = tmp_path / "in.cnf"
        source.write_text("p cnf 2 1\n1 2 0\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["simplify", "--input", str(source), "--preprocessor", "nope"])
        assert "unknown preprocessor" in str(excinfo.value)

    def test_refuted_input_reported(self, tmp_path, capsys):
        source = tmp_path / "in.cnf"
        source.write_text("p cnf 1 2\n1 0\n-1 0\n")
        assert main(["simplify", "--input", str(source)]) == 0
        assert "refuted" in capsys.readouterr().out

    def test_list_includes_preprocessors(self, capsys):
        assert main(["list", "--kind", "preprocessors"]) == 0
        output = capsys.readouterr().out
        assert "satelite" in output and "units-only" in output
